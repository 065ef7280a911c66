# One ISA per instantiation.  Every vecmath kernel is a weak template
# instantiation in a backend TU compiled with that backend's -m flag.
# If two backend objects define the same function, the linker keeps
# one copy for both, possibly the -mavx2 one for the scalar path,
# which then faults on a CPU without AVX2.  Fails when a function
# symbol (nm type T or W) is defined in more than one kernels_*.o of
# the SIMD archive.
#
#   cmake -DNM=<nm> -DLIB=<libretsim_simd.a> -P simd_symbols.cmake

execute_process(COMMAND "${NM}" -A --defined-only "${LIB}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${LIB}")
endif()

string(REPLACE "\n" ";" lines "${out}")
set(objects "")
set(shared "")
foreach(line IN LISTS lines)
    if(NOT line MATCHES ":(kernels_[A-Za-z0-9_]+\\.[a-z.]+):[0-9a-f]+ [TW] ([^ ]+)$")
        continue()
    endif()
    set(obj "${CMAKE_MATCH_1}")
    set(sym "${CMAKE_MATCH_2}")
    list(APPEND objects "${obj}")
    if(DEFINED "def_${sym}" AND NOT "${def_${sym}}" STREQUAL "${obj}")
        list(APPEND shared "${sym} (${def_${sym}}, ${obj})")
    endif()
    set("def_${sym}" "${obj}")
endforeach()

list(REMOVE_DUPLICATES objects)
if(NOT objects)
    message(FATAL_ERROR "no kernels_*.o symbols found in ${LIB}")
endif()
if(shared)
    list(JOIN shared "\n  " report)
    message(FATAL_ERROR
        "functions defined in more than one backend object "
        "(demangle with c++filt):\n  ${report}")
endif()
message(STATUS "one ISA per instantiation: ${objects}")
