/**
 * @file
 * Input-hardening tests: every user-facing parser (PGM images, strict
 * numeric tokens, CLI flags, RSU config strings, JSON) must reject
 * malformed input with a diagnostic naming the defect — never crash,
 * never silently accept garbage.  The PGM cases run against the
 * malformed-file corpus in tests/data/pgm (RETSIM_TEST_DATA_DIR).
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rsu_config.hh"
#include "img/image.hh"
#include "img/pgm_io.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/parse.hh"

namespace {

using namespace retsim;

std::string
dataPath(const std::string &name)
{
    return std::string(RETSIM_TEST_DATA_DIR) + "/pgm/" + name;
}

// ------------------------------------------------------------------
// PGM reader: good files

TEST(PgmHardening, Reads8BitFile)
{
    img::ImageU8 image;
    std::string error;
    ASSERT_TRUE(
        img::tryReadPgm(dataPath("good_8bit.pgm"), &image, &error))
        << error;
    EXPECT_EQ(image.width(), 4);
    EXPECT_EQ(image.height(), 3);
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 4; ++x)
            EXPECT_EQ(image(x, y), 'A');
}

TEST(PgmHardening, Reads16BitFileWithCommentAndScalesDown)
{
    img::ImageU8 image;
    std::string error;
    ASSERT_TRUE(
        img::tryReadPgm(dataPath("good_16bit.pgm"), &image, &error))
        << error;
    EXPECT_EQ(image.width(), 2);
    EXPECT_EQ(image.height(), 2);
    // Big-endian samples 0x0000, 0x4000, 0x8000, 0xffff over
    // maxval 65535, rounded into [0, 255].
    EXPECT_EQ(image(0, 0), 0);
    EXPECT_EQ(image(1, 0), 64);
    EXPECT_EQ(image(0, 1), 128);
    EXPECT_EQ(image(1, 1), 255);
}

TEST(PgmHardening, Reads8BitLowMaxvalAndScalesUp)
{
    img::ImageU8 image;
    std::string error;
    ASSERT_TRUE(img::tryReadPgm(dataPath("low_maxval_8bit.pgm"),
                                &image, &error))
        << error;
    EXPECT_EQ(image.width(), 3);
    EXPECT_EQ(image.height(), 1);
    // Samples 0, 50, 100 over maxval 100, rounded into [0, 255] —
    // the same contract the 16-bit path applies.
    EXPECT_EQ(image(0, 0), 0);
    EXPECT_EQ(image(1, 0), 128);
    EXPECT_EQ(image(2, 0), 255);
}

// ------------------------------------------------------------------
// PGM reader: the malformed corpus

struct BadPgm
{
    const char *file;
    const char *expect; ///< required substring of the diagnostic
};

// Without this, gtest prints a BadPgm as the raw bytes of its two
// pointers, and that dump lands in every test's listed name.  Those
// addresses move with the binary's layout and with ASLR, so the test
// names would change from build to build.
void
PrintTo(const BadPgm &c, std::ostream *os)
{
    *os << c.file << ": " << c.expect;
}

class PgmCorpusTest : public ::testing::TestWithParam<BadPgm>
{
};

TEST_P(PgmCorpusTest, IsRejectedWithDiagnostic)
{
    const BadPgm &c = GetParam();
    img::ImageU8 image;
    std::string error;
    EXPECT_FALSE(img::tryReadPgm(dataPath(c.file), &image, &error));
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.file << ": got '" << error << "'";
    // Every diagnostic names the offending file.
    EXPECT_NE(error.find(c.file), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(
    MalformedCorpus, PgmCorpusTest,
    ::testing::Values(
        BadPgm{"ascii_p2.pgm", "unsupported PNM flavor"},
        BadPgm{"ppm_p6.pgm", "unsupported PNM flavor"},
        BadPgm{"not_pnm.pgm", "bad magic"},
        BadPgm{"truncated_header.pgm", "malformed or missing maxval"},
        BadPgm{"nonnumeric_dims.pgm", "malformed or truncated"},
        BadPgm{"negative_width.pgm", "malformed or truncated"},
        BadPgm{"zero_width.pgm", "non-positive dimensions"},
        BadPgm{"dim_overflow.pgm", "implausible dimensions"},
        BadPgm{"maxval_zero.pgm", "outside [1, 65535]"},
        BadPgm{"maxval_huge.pgm", "outside [1, 65535]"},
        BadPgm{"truncated_payload.pgm", "truncated payload"},
        BadPgm{"truncated_16bit.pgm", "truncated 16-bit payload"},
        BadPgm{"sample_over_maxval.pgm", "exceeds maxval"},
        BadPgm{"sample_over_low_maxval.pgm", "exceeds maxval"}),
    [](const ::testing::TestParamInfo<BadPgm> &info) {
        std::string name = info.param.file;
        return name.substr(0, name.find('.'));
    });

TEST(PgmHardening, MissingFileIsRejected)
{
    img::ImageU8 image;
    std::string error;
    EXPECT_FALSE(img::tryReadPgm(dataPath("no_such_file.pgm"), &image,
                                 &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(PgmHardeningDeathTest, FatalWrapperNamesThePath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(img::readPgm(dataPath("truncated_payload.pgm")),
                ::testing::ExitedWithCode(1),
                "truncated_payload.pgm.*truncated payload");
}

// ------------------------------------------------------------------
// Strict numeric token parsing

TEST(StrictParse, LongAcceptsExactTokensOnly)
{
    long v = 0;
    EXPECT_TRUE(util::parseLong("42", &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(util::parseLong("-7", &v));
    EXPECT_EQ(v, -7);

    long untouched = 123;
    EXPECT_FALSE(util::parseLong("", &untouched));
    EXPECT_FALSE(util::parseLong(" 42", &untouched));
    EXPECT_FALSE(util::parseLong("42abc", &untouched));
    EXPECT_FALSE(util::parseLong("4.2", &untouched));
    EXPECT_FALSE(
        util::parseLong("99999999999999999999999", &untouched));
    EXPECT_EQ(untouched, 123); // failure leaves the output alone
}

TEST(StrictParse, UnsignedRejectsNegativeInput)
{
    unsigned long v = 0;
    EXPECT_TRUE(util::parseUnsigned("18", &v));
    EXPECT_EQ(v, 18u);
    // strtoul would wrap "-1" to ULONG_MAX; the helper must not.
    EXPECT_FALSE(util::parseUnsigned("-1", &v));
    EXPECT_FALSE(util::parseUnsigned("0x10", &v));
}

TEST(StrictParse, DoubleRejectsNonFiniteAndGarbage)
{
    double v = 0;
    EXPECT_TRUE(util::parseDouble("1.5e3", &v));
    EXPECT_EQ(v, 1500.0);
    EXPECT_FALSE(util::parseDouble("nan", &v));
    EXPECT_FALSE(util::parseDouble("inf", &v));
    EXPECT_FALSE(util::parseDouble("-inf", &v));
    EXPECT_FALSE(util::parseDouble("1e999", &v)); // overflows to inf
    EXPECT_FALSE(util::parseDouble("1.5x", &v));
    EXPECT_FALSE(util::parseDouble("", &v));
}

// ------------------------------------------------------------------
// CLI flag parsing

TEST(CliHardeningDeathTest, MalformedNumericFlagsAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv_int[] = {"prog", "--sweeps=12x"};
    util::CliArgs bad_int(2, argv_int);
    EXPECT_EXIT(bad_int.getInt("sweeps", 1),
                ::testing::ExitedWithCode(1),
                "option --sweeps expects an integer, got '12x'");

    const char *argv_dbl[] = {"prog", "--t0=nan"};
    util::CliArgs bad_dbl(2, argv_dbl);
    EXPECT_EXIT(bad_dbl.getDouble("t0", 1.0),
                ::testing::ExitedWithCode(1),
                "option --t0 expects a finite number");
}

TEST(CliHardeningDeathTest, OutOfRangeIntegerFlagsAreFatalNotWrapped)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // 2^32 + 3 would narrow to 3 sweeps, and -1 to the largest seed.
    const char *argv[] = {"prog", "--sweeps=4294967299", "--seed=-1",
                          "--time-bits=4294967301", "--labels=0"};
    util::CliArgs args(5, argv);
    EXPECT_EXIT(args.getIntIn("sweeps", 1, 1),
                ::testing::ExitedWithCode(1),
                "--sweeps=4294967299 is out of range");
    EXPECT_EXIT(args.getIntIn<std::uint64_t>("seed", 1, 0),
                ::testing::ExitedWithCode(1),
                "--seed=-1 is out of range");
    EXPECT_EXIT(args.getIntIn<unsigned>("time-bits", 5, 0),
                ::testing::ExitedWithCode(1),
                "--time-bits=4294967301 is out of range");
    EXPECT_EXIT(args.getIntIn("labels", 16, 1),
                ::testing::ExitedWithCode(1),
                "--labels=0 is out of range");
}

TEST(CliHardeningDeathTest, UnreadFlagsAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A removed option (or a typo) must not quietly run the defaults.
    const char *argv[] = {"prog", "--sweeps=25", "--shards=2",
                          "--verbose"};
    util::CliArgs args(4, argv);
    EXPECT_EQ(args.getIntIn("sweeps", 1, 1), 25);
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_EXIT(args.rejectUnread(), ::testing::ExitedWithCode(1),
                "unknown option --shards");
}

TEST(CliHardening, WellFormedFlagsStillParse)
{
    const char *argv[] = {"prog", "--sweeps=25", "--t0=4.5",
                          "scene.pgm", "--threads=2147483647",
                          "--seed=9223372036854775807", "--quick"};
    util::CliArgs args(7, argv);
    EXPECT_EQ(args.getIntIn("sweeps", 1, 1), 25);
    EXPECT_EQ(args.getIntIn("threads", 1, 0), 2147483647);
    EXPECT_EQ(args.getIntIn<std::uint64_t>("seed", 1, 0),
              9223372036854775807ULL);
    EXPECT_EQ(args.getIntIn("absent", -1, -1), -1);
    EXPECT_EQ(args.getInt("sweeps", 1), 25);
    EXPECT_EQ(args.getDouble("t0", 1.0), 4.5);
    EXPECT_EQ(args.getInt("absent", 9), 9);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "scene.pgm");
    // Every flag has been read and positionals are not flags, so this
    // returns.
    EXPECT_TRUE(args.getBool("quick", false));
    args.rejectUnread();
}

// ------------------------------------------------------------------
// RSU config strings

TEST(RsuConfigHardeningDeathTest, BadValuesNameTheKey)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(core::RsuConfig::fromString("energy_bits=ten"),
                ::testing::ExitedWithCode(1),
                "config key 'energy_bits' expects an unsigned "
                "integer, got 'ten'");
    EXPECT_EXIT(core::RsuConfig::fromString("truncation=nan"),
                ::testing::ExitedWithCode(1),
                "config key 'truncation' expects a finite number");
    EXPECT_EXIT(core::RsuConfig::fromString("energy_bits"),
                ::testing::ExitedWithCode(1),
                "malformed config token 'energy_bits'");
    EXPECT_EXIT(core::RsuConfig::fromString("bogus_key=1"),
                ::testing::ExitedWithCode(1),
                "unknown config key 'bogus_key'");
}

TEST(RsuConfigHardening, WellFormedStringStillParses)
{
    core::RsuConfig cfg =
        core::RsuConfig::fromString("energy_bits=6 truncation=0.25");
    EXPECT_EQ(cfg.energyBits, 6u);
    EXPECT_EQ(cfg.truncation, 0.25);
}

// ------------------------------------------------------------------
// JSON parser / dumper

TEST(JsonHardening, RejectsExcessiveNesting)
{
    std::string deep;
    for (int i = 0; i < util::JsonValue::kMaxParseDepth + 10; ++i)
        deep += '[';
    util::JsonValue v;
    std::string error;
    EXPECT_FALSE(util::JsonValue::parse(deep, &v, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos)
        << error;
}

TEST(JsonHardening, AcceptsReasonableNesting)
{
    const int depth = util::JsonValue::kMaxParseDepth - 28;
    std::string text(static_cast<std::size_t>(depth), '[');
    text += "1";
    text.append(static_cast<std::size_t>(depth), ']');
    util::JsonValue v;
    std::string error;
    EXPECT_TRUE(util::JsonValue::parse(text, &v, &error)) << error;
}

TEST(JsonHardening, RejectsNonFiniteNumbers)
{
    util::JsonValue v;
    std::string error;
    // from_chars accepts these spellings; JSON must not.
    EXPECT_FALSE(util::JsonValue::parse("-inf", &v, &error));
    EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
    EXPECT_FALSE(util::JsonValue::parse("1e999", &v, &error));
    EXPECT_FALSE(util::JsonValue::parse("nan", &v, &error));
    EXPECT_FALSE(util::JsonValue::parse("inf", &v, &error));
}

TEST(JsonHardening, RejectsTrailingGarbage)
{
    util::JsonValue v;
    std::string error;
    EXPECT_FALSE(util::JsonValue::parse("{\"a\": 1} extra", &v,
                                        &error));
    EXPECT_NE(error.find("trailing characters"), std::string::npos)
        << error;
}

TEST(JsonHardening, ErrorsCarryLineNumbers)
{
    util::JsonValue v;
    std::string error;
    EXPECT_FALSE(
        util::JsonValue::parse("{\n\"a\": 1,\n\"b\": }\n", &v,
                               &error));
    EXPECT_EQ(error.rfind("line 3:", 0), 0u) << error;
}

TEST(JsonHardening, DumpsNonFiniteAsNull)
{
    util::JsonValue obj = util::JsonValue::object();
    obj.set("nan", util::JsonValue(std::nan("")));
    obj.set("inf",
            util::JsonValue(std::numeric_limits<double>::infinity()));
    obj.set("ok", util::JsonValue(2.5));
    EXPECT_EQ(obj.dump(),
              "{\"nan\":null,\"inf\":null,\"ok\":2.5}");
}

TEST(JsonHardening, DumpParseRoundTripSurvivesHardening)
{
    util::JsonValue obj = util::JsonValue::object();
    obj.set("name", util::JsonValue(std::string("line\n\"two\"")));
    obj.set("value", util::JsonValue(0.1));
    util::JsonValue arr = util::JsonValue::array();
    arr.append(util::JsonValue(true));
    arr.append(util::JsonValue());
    obj.set("items", std::move(arr));

    util::JsonValue back;
    std::string error;
    ASSERT_TRUE(util::JsonValue::parse(obj.dump(2), &back, &error))
        << error;
    EXPECT_EQ(back.dump(), obj.dump());
}

} // namespace
