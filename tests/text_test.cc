#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "text/serializer.h"
#include "text/tokenizer.h"
#include "text/vocab.h"

namespace explainti::text {
namespace {

std::shared_ptr<Vocab> TestVocab() {
  auto vocab = std::make_shared<Vocab>();
  for (const char* word :
       {"title", "header", "cell", "nba", "draft", "player", "team",
        "lakers", "james", "smith", "1990", "basket", "##ball"}) {
    vocab->AddToken(word);
  }
  return vocab;
}

TEST(VocabTest, SpecialTokensAreFirst) {
  Vocab vocab;
  EXPECT_EQ(vocab.Id("[PAD]"), SpecialTokens::kPad);
  EXPECT_EQ(vocab.Id("[UNK]"), SpecialTokens::kUnk);
  EXPECT_EQ(vocab.Id("[CLS]"), SpecialTokens::kCls);
  EXPECT_EQ(vocab.Id("[SEP]"), SpecialTokens::kSep);
  EXPECT_EQ(vocab.Id("[MASK]"), SpecialTokens::kMask);
  EXPECT_EQ(vocab.size(), SpecialTokens::kCount);
}

TEST(VocabTest, UnknownMapsToUnk) {
  Vocab vocab;
  EXPECT_EQ(vocab.Id("zzz"), SpecialTokens::kUnk);
}

TEST(VocabTest, AddTokenIsIdempotent) {
  Vocab vocab;
  const int id1 = vocab.AddToken("hello");
  const int id2 = vocab.AddToken("hello");
  EXPECT_EQ(id1, id2);
}

TEST(VocabTest, BuildVocabOrdersByFrequency) {
  std::unordered_map<std::string, int64_t> counts = {
      {"rare", 1}, {"common", 100}, {"mid", 10}};
  Vocab vocab = BuildVocab(counts, /*max_size=*/10000, /*min_count=*/1);
  EXPECT_LT(vocab.Id("common"), vocab.Id("mid"));
  EXPECT_LT(vocab.Id("mid"), vocab.Id("rare"));
}

TEST(VocabTest, BuildVocabRespectsMinCount) {
  std::unordered_map<std::string, int64_t> counts = {{"once", 1},
                                                     {"often", 5}};
  Vocab vocab = BuildVocab(counts, 10000, /*min_count=*/2);
  EXPECT_TRUE(vocab.Contains("often"));
  EXPECT_FALSE(vocab.Contains("once"));
}

TEST(VocabTest, BuildVocabIncludesCharacterFallbacks) {
  Vocab vocab = BuildVocab({}, 10000);
  EXPECT_TRUE(vocab.Contains("a"));
  EXPECT_TRUE(vocab.Contains("##z"));
  EXPECT_TRUE(vocab.Contains("7"));
}

TEST(BasicTokenizeTest, LowercasesAndSplitsPunctuation) {
  EXPECT_EQ(BasicTokenize("Hello, World!"),
            (std::vector<std::string>{"hello", ",", "world", "!"}));
}

TEST(BasicTokenizeTest, KeepsApostrophes) {
  EXPECT_EQ(BasicTokenize("o'neal"), (std::vector<std::string>{"o'neal"}));
}

TEST(WordPieceTest, WholeWordMatch) {
  WordPieceTokenizer tokenizer(TestVocab());
  EXPECT_EQ(tokenizer.Tokenize("nba draft"),
            (std::vector<std::string>{"nba", "draft"}));
}

TEST(WordPieceTest, GreedyLongestMatchDecomposition) {
  WordPieceTokenizer tokenizer(TestVocab());
  EXPECT_EQ(tokenizer.Tokenize("basketball"),
            (std::vector<std::string>{"basket", "##ball"}));
}

TEST(WordPieceTest, UnmatchableWordBecomesUnk) {
  WordPieceTokenizer tokenizer(TestVocab());
  const auto tokens = tokenizer.Tokenize("qqqq");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "[UNK]");
}

TEST(ByteFallbackTest, NeverProducesUnkToken) {
  ByteFallbackTokenizer tokenizer(TestVocab());
  const auto tokens = tokenizer.Tokenize("qqqq");
  EXPECT_EQ(tokens, (std::vector<std::string>{"q", "##q", "##q", "##q"}));
}

TEST(MakeTokenizerTest, DispatchesOnBaseModel) {
  auto vocab = TestVocab();
  EXPECT_NE(dynamic_cast<WordPieceTokenizer*>(
                MakeTokenizer("bert", vocab).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<ByteFallbackTokenizer*>(
                MakeTokenizer("roberta", vocab).get()),
            nullptr);
}

TEST(SerializerTest, ColumnLayoutMatchesPaper) {
  auto vocab = TestVocab();
  WordPieceTokenizer tokenizer(vocab);
  SequenceSerializer serializer(&tokenizer, 40);
  const EncodedSequence seq = serializer.SerializeColumn(
      ColumnText{"1990 nba draft", "player", {"james smith"}});
  ASSERT_GE(seq.ids.size(), 4u);
  EXPECT_EQ(seq.ids.front(), SpecialTokens::kCls);
  EXPECT_EQ(seq.ids.back(), SpecialTokens::kSep);
  EXPECT_EQ(seq.tokens[1], "title");
  // All segments are 0 for a single column.
  for (int segment : seq.segments) EXPECT_EQ(segment, 0);
  EXPECT_EQ(seq.sep_pos, static_cast<int>(seq.ids.size()) - 1);
}

TEST(SerializerTest, PairLayoutHasTwoSegments) {
  auto vocab = TestVocab();
  WordPieceTokenizer tokenizer(vocab);
  SequenceSerializer serializer(&tokenizer, 40);
  const EncodedSequence seq = serializer.SerializePair(
      ColumnText{"1990 nba draft", "player", {"james smith"}},
      ColumnText{"1990 nba draft", "team", {"lakers"}});
  EXPECT_EQ(seq.ids.front(), SpecialTokens::kCls);
  EXPECT_EQ(seq.ids.back(), SpecialTokens::kSep);
  ASSERT_GT(seq.sep_pos, 0);
  EXPECT_EQ(seq.ids[static_cast<size_t>(seq.sep_pos)], SpecialTokens::kSep);
  // Segment flips to 1 after the first [SEP].
  EXPECT_EQ(seq.segments[static_cast<size_t>(seq.sep_pos)], 0);
  EXPECT_EQ(seq.segments.back(), 1);
}

TEST(SerializerTest, TruncatesToMaxLenWithTrailingSep) {
  auto vocab = TestVocab();
  WordPieceTokenizer tokenizer(vocab);
  SequenceSerializer serializer(&tokenizer, 12);
  std::vector<std::string> many_cells(50, "james smith");
  const EncodedSequence seq = serializer.SerializeColumn(
      ColumnText{"1990 nba draft", "player", many_cells});
  EXPECT_LE(seq.ids.size(), 12u);
  EXPECT_EQ(seq.ids.back(), SpecialTokens::kSep);
}

TEST(SerializerTest, DedupCellsRemovesDuplicates) {
  auto vocab = TestVocab();
  WordPieceTokenizer tokenizer(vocab);
  SequenceSerializer plain(&tokenizer, 64, /*dedup_cells=*/false);
  SequenceSerializer dedup(&tokenizer, 64, /*dedup_cells=*/true);
  const ColumnText column{"draft", "player",
                          {"james", "james", "james", "smith"}};
  EXPECT_GT(plain.SerializeColumn(column).ids.size(),
            dedup.SerializeColumn(column).ids.size());
}

TEST(SequenceBuilderTest, BuildsWithSepPosAndBudget) {
  auto vocab = TestVocab();
  WordPieceTokenizer tokenizer(vocab);
  SequenceBuilder builder(&tokenizer, 10);
  builder.AddSpecial(SpecialTokens::kCls, 0);
  builder.AddText("nba draft", 0);
  builder.AddSpecial(SpecialTokens::kSep, 0);
  builder.AddText("player team lakers james smith draft nba", 1);
  const EncodedSequence seq = builder.Build();
  EXPECT_LE(seq.ids.size(), 10u);
  EXPECT_EQ(seq.ids.back(), SpecialTokens::kSep);
  EXPECT_EQ(seq.sep_pos, 3);
}

// An LE window's display text: "##" pieces rejoin their word, specials
// drop out, and the window bounds clamp to the sequence.
TEST(WindowTextTest, MergesContinuationsAndSkipsSpecials) {
  const std::vector<std::string> tokens = {
      "[CLS]", "new", "york", "##er", "##s", "[SEP]", "##x", "ci", "##ty",
      "[PAD]", ""};
  EXPECT_EQ(WindowText(tokens, 0, 6), "new yorkers");
  EXPECT_EQ(WindowText(tokens, 1, 3), "new york");
  // A continuation with no word before it in the window starts one.
  EXPECT_EQ(WindowText(tokens, 3, 5), "##ers");
  // The special between them does not end the word "yorkers" ...
  EXPECT_EQ(WindowText(tokens, 2, 7), "yorkersx");
  // ... and a window of specials only, or an empty one, is empty.
  EXPECT_EQ(WindowText(tokens, 5, 6), "");
  EXPECT_EQ(WindowText(tokens, 0, 1), "");
  EXPECT_EQ(WindowText(tokens, 4, 4), "");
  EXPECT_EQ(WindowText(tokens, 6, 9), "##x city");
  // The end clamps to the sequence; an empty token is a word.
  EXPECT_EQ(WindowText(tokens, 7, 100), "city ");
  EXPECT_EQ(WindowText({}, 0, 3), "");
}

}  // namespace
}  // namespace explainti::text
