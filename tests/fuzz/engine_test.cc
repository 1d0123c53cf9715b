// Tests for the bundled coverage-guided fuzzing engine itself: dictionary
// parsing, mutator determinism, AFL-style corpus culling, and an
// end-to-end check that the engine actually explores the frame parser
// (fuzz_frame.cc is linked into this binary for its
// LLVMFuzzerTestOneInput).
#include "engine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/frame.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace fuzz {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes ToBytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// --- ParseDictionary ----------------------------------------------------

TEST(DictionaryTest, ParsesTokensCommentsAndBlankLines) {
  const auto tokens = ParseDictionary(
      "# AFL++ dictionary\n"
      "\n"
      "magic=\"AFCZ\"\n"
      "  hello = \"hi\"  \n");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], ToBytes("AFCZ"));
  EXPECT_EQ(tokens[1], ToBytes("hi"));
}

TEST(DictionaryTest, DecodesHexAndBackslashEscapes) {
  const auto tokens =
      ParseDictionary("t=\"\\x41\\x00\\\\\\\"\"\n");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], (Bytes{'A', 0x00, '\\', '"'}));
}

TEST(DictionaryTest, MalformedLinesThrowCheckError) {
  EXPECT_THROW(ParseDictionary("novalue=\n"), util::CheckError);
  EXPECT_THROW(ParseDictionary("unterminated=\"abc\n"), util::CheckError);
  EXPECT_THROW(ParseDictionary("badescape=\"\\q\"\n"), util::CheckError);
}

// --- Mutator ------------------------------------------------------------

TEST(MutatorTest, SameSeedSameSequenceIsDeterministic) {
  const std::vector<Bytes> dict = {ToBytes("AFCZ"), ToBytes("AFPM")};
  Mutator a(42, dict);
  Mutator b(42, dict);
  const Bytes base = ToBytes("the quick brown fox");
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Mutate(base, 64), b.Mutate(base, 64)) << "call " << i;
  }
}

TEST(MutatorTest, DifferentSeedsDiverge) {
  Mutator a(1, {});
  Mutator b(2, {});
  const Bytes base = ToBytes("the quick brown fox");
  bool diverged = false;
  for (int i = 0; i < 50 && !diverged; ++i) {
    diverged = a.Mutate(base, 64) != b.Mutate(base, 64);
  }
  EXPECT_TRUE(diverged);
}

TEST(MutatorTest, RespectsMaxLen) {
  Mutator m(7, {ToBytes("a-token-longer-than-the-cap")});
  const Bytes base(24, 0xAB);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LE(m.Mutate(base, 16).size(), 16u);
  }
}

// --- Corpus culling -----------------------------------------------------

// Feature layout for CullTarget: inputs starting with 'F' hit one shared
// feature; a 'G' in the second byte hits another.
int CullTarget(const std::uint8_t* data, std::size_t size) {
  if (size > 0 && data[0] == 'F') {
    Observe(0xF00D);
  }
  if (size > 1 && data[1] == 'G') {
    Observe(0xBEEF);
  }
  return 0;
}

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("af_fuzz_engine_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name, const Bytes& bytes) {
    const std::string full = (path_ / name).string();
    std::ofstream out(full, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return full;
  }

 private:
  std::filesystem::path path_;
};

TEST(CullingTest, ShorterInputTakesOverFavoredStatus) {
  TempDir dir;
  // Both seeds land in the same length bucket (8..15 bytes) and hit the
  // shared 0xF00D feature; the second is shorter and adds 0xBEEF, so after
  // culling it must own every feature and be the only favored entry.
  Bytes longer = ToBytes("Fxxxxxxxxxxxxxx");  // 15 bytes, feature F only
  Bytes shorter = ToBytes("FGxxxxxx");        // 8 bytes, features F and G

  Options options;
  options.runs = 0;  // replay seeds only
  options.seed_files = {dir.File("a_long", longer),
                        dir.File("b_short", shorter)};
  Engine engine(&CullTarget, options);
  const Stats stats = engine.Run();

  EXPECT_EQ(stats.crashes, 0u);
  const auto corpus = engine.CorpusForTest();
  ASSERT_EQ(corpus.size(), 2u);
  ASSERT_EQ(corpus[0], longer);
  ASSERT_EQ(corpus[1], shorter);
  const auto favored = engine.FavoredForTest();
  ASSERT_EQ(favored.size(), 1u);
  EXPECT_EQ(favored[0], 1u) << "the shorter entry must be the favored one";
}

// --- End to end over the frame parser -----------------------------------

TEST(EngineEndToEndTest, FrameTargetReachesFeaturesWithinBudget) {
  TempDir dir;
  // One well-formed frame as the seed so mutation starts from the happy
  // path rather than having to invent the magic.
  const Bytes seed = net::EncodeFrame(net::EncodeHello({{7}}));

  Options options;
  options.runs = 4000;
  options.seed = 3;
  options.max_len = 256;
  options.seed_files = {dir.File("hello_frame", seed)};
  Engine engine(&LLVMFuzzerTestOneInput, options);
  const Stats stats = engine.Run();

  EXPECT_EQ(stats.crashes, 0u) << stats.last_crash_what;
  EXPECT_GE(stats.execs, 4000u);
  // Fallback novelty alone (length buckets + distinct CheckError sites +
  // harness Observes) must clear this bar comfortably; instrumented builds
  // land far above it.
  EXPECT_GE(stats.features, 12u);
  EXPECT_GE(engine.CorpusForTest().size(), 4u);
}

}  // namespace
}  // namespace fuzz
