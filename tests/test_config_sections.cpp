// Sectioned config layer (common/config):
//  * [section] / [[section]] headers parse into unique and repeatable
//    scopes with stable declaration order and qualified key paths,
//  * duplicate keys are a typed ConfigError naming both lines (the old
//    last-writer-wins behaviour silently masked copy-paste mistakes),
//  * typed getters qualify every parse error with the full key path,
//  * number lists, unused-key tracking, and header validation,
//  * the kernel-path <-> string mapping round-trips (common/kernel_path)
//    and the run config rejects any other kernel_path spelling.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "common/kernel_path.hpp"
#include "runner/run_pipeline.hpp"

namespace tsg {
namespace {

/// EXPECT that `fn` throws ConfigError whose message contains `needle`.
template <class Fn>
void expectConfigError(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected ConfigError containing \"" << needle << "\"";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ConfigSections, SectionsAndArraysParse) {
  const ConfigFile cfg = ConfigFile::parse(
      "top = 1\n"
      "[solver]\n"
      "gravity = 9.81\n"
      "[[receiver]]\n"
      "name = a\n"
      "[[receiver]]\n"
      "name = b\n"
      "x = 2.5\n");
  EXPECT_TRUE(cfg.hasSections());
  EXPECT_TRUE(cfg.hasSection("solver"));
  EXPECT_FALSE(cfg.hasSection("fault"));
  EXPECT_EQ(cfg.getNumber("top", 0), 1.0);

  const ConfigSection solver = cfg.uniqueSection("solver");
  EXPECT_EQ(solver.name(), "solver");
  EXPECT_EQ(solver.path(), "solver");
  EXPECT_EQ(solver.getNumber("gravity", 0), 9.81);

  const auto receivers = cfg.sections("receiver");
  ASSERT_EQ(receivers.size(), 2u);
  EXPECT_EQ(receivers[0].path(), "receiver[0]");
  EXPECT_EQ(receivers[1].path(), "receiver[1]");
  EXPECT_EQ(receivers[0].getString("name", ""), "a");
  EXPECT_EQ(receivers[1].getString("name", ""), "b");
  EXPECT_EQ(receivers[1].getNumber("x", 0), 2.5);
  EXPECT_LT(receivers[0].headerLine(), receivers[1].headerLine());

  // First-appearance order, each name once.
  EXPECT_EQ(cfg.sectionNames(),
            (std::vector<std::string>{"solver", "receiver"}));
}

TEST(ConfigSections, SectionlessFileStillParses) {
  const ConfigFile cfg = ConfigFile::parse("a = 1\nb = two\n");
  EXPECT_FALSE(cfg.hasSections());
  EXPECT_TRUE(cfg.sections("anything").empty());
  EXPECT_EQ(cfg.getString("b", ""), "two");
}

// The satellite fix: duplicate keys used to be last-writer-wins, which
// silently masked copy-paste mistakes in long configs.
TEST(ConfigSections, DuplicateTopLevelKeyIsError) {
  expectConfigError([] { ConfigFile::parse("a = 1\nb = 2\na = 3\n"); },
                    "duplicate key a on line 3 (first set on line 1)");
}

TEST(ConfigSections, DuplicateKeyInSectionIsErrorWithQualifiedPath) {
  expectConfigError(
      [] { ConfigFile::parse("[fault]\nmu_s = 0.6\nmu_s = 0.7\n"); },
      "duplicate key fault.mu_s on line 3");
  // Repeatable scope: the path carries the instance index.
  expectConfigError(
      [] { ConfigFile::parse("[[seg]]\nx = 1\n[[seg]]\nx = 1\nx = 2\n"); },
      "duplicate key seg[1].x on line 5");
}

TEST(ConfigSections, SameKeyInDifferentScopesIsNotADuplicate) {
  const ConfigFile cfg = ConfigFile::parse(
      "x = 0\n[a]\nx = 1\n[[b]]\nx = 2\n[[b]]\nx = 3\n");
  EXPECT_EQ(cfg.getNumber("x", -1), 0.0);
  EXPECT_EQ(cfg.uniqueSection("a").getNumber("x", -1), 1.0);
  EXPECT_EQ(cfg.sections("b")[1].getNumber("x", -1), 3.0);
}

TEST(ConfigSections, DuplicateUniqueSectionIsError) {
  expectConfigError(
      [] { ConfigFile::parse("[solver]\na = 1\n[solver]\nb = 2\n"); },
      "use [[solver]] for repeated sections");
}

TEST(ConfigSections, MixingHeaderKindsIsError) {
  expectConfigError(
      [] { ConfigFile::parse("[seg]\na = 1\n[[seg]]\nb = 2\n"); }, "mixes");
  expectConfigError(
      [] { ConfigFile::parse("[[seg]]\na = 1\n[seg]\nb = 2\n"); }, "mixes");
}

TEST(ConfigSections, MalformedHeadersAreErrors) {
  expectConfigError([] { ConfigFile::parse("[open\n"); }, "malformed");
  expectConfigError([] { ConfigFile::parse("[[open]\n"); }, "malformed");
  expectConfigError([] { ConfigFile::parse("[]\n"); }, "invalid section name");
  expectConfigError([] { ConfigFile::parse("[no spaces]\n"); },
                    "invalid section name");
}

TEST(ConfigSections, UniqueSectionErrors) {
  const ConfigFile cfg = ConfigFile::parse("[[r]]\na = 1\n[[r]]\na = 2\n");
  expectConfigError([&] { cfg.uniqueSection("missing"); },
                    "missing required section [missing]");
  expectConfigError([&] { cfg.uniqueSection("r"); }, "must be unique");
}

TEST(ConfigSections, TypedGetterErrorsCarryKeyPath) {
  const ConfigFile cfg = ConfigFile::parse(
      "[s]\nnum = 10.0abc\nbig = 1e999\ninf = inf\nfrac = 2.5\n"
      "flag = maybe\n");
  const ConfigSection s = cfg.uniqueSection("s");
  expectConfigError([&] { s.getNumber("num", 0); }, "not a number: s.num");
  expectConfigError([&] { s.getNumber("big", 0); },
                    "not a finite number: s.big");
  expectConfigError([&] { s.getNumber("inf", 0); },
                    "not a finite number: s.inf");
  expectConfigError([&] { s.getInt("frac", 0); }, "not an integer: s.frac");
  expectConfigError([&] { s.getBool("flag", false); },
                    "not a boolean: s.flag");
  expectConfigError([&] { s.requireString("absent"); },
                    "missing required key s.absent");
  expectConfigError([&] { s.requireNumber("absent"); }, "s.absent");
  // Defaults still work for genuinely absent keys.
  EXPECT_EQ(s.getNumber("absent", 7.0), 7.0);
  EXPECT_EQ(s.getString("absent", "d"), "d");
  EXPECT_TRUE(s.getBool("absent", true));
}

TEST(ConfigSections, RepeatedSectionErrorsCarryIndexedPath) {
  const ConfigFile cfg =
      ConfigFile::parse("[[seg]]\nv = 1\n[[seg]]\nv = oops\n");
  expectConfigError([&] { cfg.sections("seg")[1].getNumber("v", 0); },
                    "seg[1].v");
}

TEST(ConfigSections, NumberListParsesAndRejectsEmptyEntries) {
  const ConfigFile cfg =
      ConfigFile::parse("[s]\ngood = 1, 2.5,3e1\nbad = 1,,2\none = 4\n");
  const ConfigSection s = cfg.uniqueSection("s");
  EXPECT_EQ(s.getNumberList("good"), (std::vector<double>{1.0, 2.5, 30.0}));
  EXPECT_EQ(s.getNumberList("one"), (std::vector<double>{4.0}));
  EXPECT_TRUE(s.getNumberList("absent").empty());
  expectConfigError([&] { s.getNumberList("bad"); },
                    "empty entry in list s.bad");
}

TEST(ConfigSections, UnusedKeyTrackingIsPerScope) {
  const ConfigFile cfg =
      ConfigFile::parse("top = 1\n[s]\nread = 1\nignored = 2\n");
  const ConfigSection s = cfg.uniqueSection("s");
  (void)s.getNumber("read", 0);
  EXPECT_EQ(s.unusedKeys(), (std::set<std::string>{"ignored"}));
  // Top-level tracking is independent of section reads.
  EXPECT_EQ(cfg.unusedKeys(), (std::set<std::string>{"top"}));
  (void)cfg.getNumber("top", 0);
  EXPECT_TRUE(cfg.unusedKeys().empty());
}

TEST(ConfigSections, CommentsAndBlankLinesIgnoredEverywhere) {
  const ConfigFile cfg = ConfigFile::parse(
      "# run\n"
      "a = 1  # trailing\n"
      "\n"
      "[s]   # section comment\n"
      "b = 2\n");
  EXPECT_EQ(cfg.getNumber("a", 0), 1.0);
  EXPECT_EQ(cfg.uniqueSection("s").getNumber("b", 0), 2.0);
}

TEST(KernelPath, NameParseRoundTrip) {
  for (const KernelPath p : {KernelPath::kReference, KernelPath::kBatched}) {
    const auto parsed = parseKernelPath(kernelPathName(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(parseKernelPath("fast").has_value());
  EXPECT_FALSE(parseKernelPath("bogus").has_value());
  EXPECT_FALSE(parseKernelPath("").has_value());
  // The choices string advertises every parseable name.
  const std::string choices = kernelPathChoices();
  EXPECT_NE(choices.find("reference"), std::string::npos);
  EXPECT_NE(choices.find("batched"), std::string::npos);
}

TEST(ConfigSections, RunConfigRejectsUnknownKernelPath) {
  expectConfigError(
      [] { readRunOptions(ConfigFile::parse("kernel_path = fast\n")); },
      "reference | batched");
}

}  // namespace
}  // namespace tsg
