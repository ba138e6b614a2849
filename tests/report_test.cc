// SaveOutcome/LoadOutcome failure paths: corrupted headers, truncated
// bodies, hostile counts, and unwritable/missing files must come back as
// error Results, never as partially-filled outcomes.
#include <sstream>
#include <string>

#include "common/bytes.h"
#include "gtest/gtest.h"
#include "search/report.h"
#include "search/searcher.h"

namespace automc {
namespace search {
namespace {

SearchOutcome SampleOutcome() {
  SearchOutcome out;
  out.executions = 7;
  HistoryPoint h1;
  h1.executions = 3;
  h1.best_acc = 0.5;
  h1.best_acc_any = 0.6;
  HistoryPoint h2;
  h2.executions = 7;
  h2.best_acc = 0.55;
  h2.best_acc_any = 0.62;
  out.history = {h1, h2};
  EvalPoint p;
  p.acc = 0.55;
  p.params = 1234;
  p.flops = 99;
  p.pr = 0.4;
  p.fr = 0.3;
  out.pareto_points = {p};
  out.pareto_schemes = {{2, 5, 1}};
  return out;
}

std::string Serialized(const SearchOutcome& out) {
  std::ostringstream os;
  EXPECT_TRUE(SaveOutcome(out, &os).ok());
  return os.str();
}

TEST(ReportTest, SaveLoadRoundTrip) {
  SearchOutcome out = SampleOutcome();
  std::istringstream in(Serialized(out));
  auto loaded = LoadOutcome(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->executions, 7);
  ASSERT_EQ(loaded->history.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->history[1].best_acc, 0.55);
  ASSERT_EQ(loaded->pareto_schemes.size(), 1u);
  EXPECT_EQ(loaded->pareto_schemes[0], (std::vector<int>{2, 5, 1}));
  EXPECT_EQ(loaded->pareto_points[0].params, 1234);
  // The round-trip is lossless: re-serializing gives the same bytes.
  EXPECT_EQ(Serialized(*loaded), Serialized(out));
}

TEST(ReportTest, SaveRejectsNullAndInconsistentOutcome) {
  EXPECT_EQ(SaveOutcome(SampleOutcome(), nullptr).code(),
            StatusCode::kInvalidArgument);
  SearchOutcome skewed = SampleOutcome();
  skewed.pareto_schemes.push_back({1});  // schemes/points out of sync
  std::ostringstream os;
  EXPECT_EQ(SaveOutcome(skewed, &os).code(), StatusCode::kInvalidArgument);
}

TEST(ReportTest, LoadRejectsBadHeader) {
  for (const std::string& bad :
       {std::string(""), std::string("garbage"),
        std::string("AUTOMC_OUTCOME 2\n"),  // future version
        std::string("NOT_AN_OUTCOME 1\n")}) {
    std::istringstream in(bad);
    auto loaded = LoadOutcome(&in);
    EXPECT_FALSE(loaded.ok()) << "input: " << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ReportTest, LoadRejectsTruncationAtEveryLine) {
  const std::string full = Serialized(SampleOutcome());
  // Chop the serialized form at every line boundary except the last; each
  // prefix must fail to load rather than yield a partial outcome.
  for (size_t pos = full.find('\n'); pos != std::string::npos && pos + 1 < full.size();
       pos = full.find('\n', pos + 1)) {
    std::istringstream in(full.substr(0, pos + 1));
    auto loaded = LoadOutcome(&in);
    EXPECT_FALSE(loaded.ok()) << "prefix length " << pos + 1;
  }
}

TEST(ReportTest, LoadRejectsHostileCounts) {
  std::istringstream history_bomb(
      "AUTOMC_OUTCOME 1\nexecutions 3\nhistory 99999999999\n");
  EXPECT_FALSE(LoadOutcome(&history_bomb).ok());

  std::istringstream pareto_bomb(
      "AUTOMC_OUTCOME 1\nexecutions 3\nhistory 0\npareto 99999999999\n");
  EXPECT_FALSE(LoadOutcome(&pareto_bomb).ok());

  std::istringstream scheme_bomb(
      "AUTOMC_OUTCOME 1\nexecutions 3\nhistory 0\npareto 1\n"
      "0.5 10 10 0.1 0.1 123456\n");
  EXPECT_FALSE(LoadOutcome(&scheme_bomb).ok());
}

TEST(ReportTest, BinaryLoadRefusesCountsTheBytesDoNotBack) {
  // A declared count must not size an allocation: 2^32 - 1 pareto entries
  // in a 4-byte payload used to throw std::bad_alloc from a resize.
  ByteWriter pareto_bomb;
  pareto_bomb.U32(0xffffffffu);
  auto loaded = LoadOutcomeBytes(pareto_bomb.str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  ByteWriter history_bomb;
  history_bomb.U32(0);
  history_bomb.U32(0xffffffffu);
  loaded = LoadOutcomeBytes(history_bomb.str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReportTest, LoadRejectsTruncatedScheme) {
  std::istringstream in(
      "AUTOMC_OUTCOME 1\nexecutions 3\nhistory 0\npareto 1\n"
      "0.5 10 10 0.1 0.1 3 7 8\n");  // scheme claims 3 indices, has 2
  auto loaded = LoadOutcome(&in);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReportTest, FileHelpersReportMissingAndUnwritablePaths) {
  EXPECT_EQ(LoadOutcomeFile("/nonexistent/dir/outcome.txt").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(SaveOutcomeFile(SampleOutcome(), "/nonexistent/dir/outcome.txt")
                .code(),
            StatusCode::kNotFound);
}

// A path that opens but cannot be read is an I/O failure, not a malformed
// outcome.
TEST(ReportTest, LoadOutcomeFileReportsAnUnreadablePathAsAnIoError) {
  const Result<SearchOutcome> loaded = LoadOutcomeFile(::testing::TempDir());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace search
}  // namespace automc
