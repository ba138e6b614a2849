#ifndef AUTOMC_SEARCH_REPORT_H_
#define AUTOMC_SEARCH_REPORT_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"
#include "search/search_space.h"
#include "search/searcher.h"

namespace automc {
namespace search {

// CSV exports of search results, so the Figure 4/5 series can be plotted
// with external tooling. The *File forms here replace their file whole
// through durable::AtomicWriteFile.

// history.csv: executions,best_acc_feasible,best_acc_any
Status WriteHistoryCsv(const SearchOutcome& outcome, std::ostream* out);
Status WriteHistoryCsvFile(const SearchOutcome& outcome,
                           const std::string& path);

// pareto.csv: acc,params,flops,pr,fr,scheme (scheme as quoted text)
Status WriteParetoCsv(const SearchOutcome& outcome, const SearchSpace& space,
                      std::ostream* out);
Status WriteParetoCsvFile(const SearchOutcome& outcome,
                          const SearchSpace& space, const std::string& path);

// Lossless text persistence of a SearchOutcome (schemes as strategy index
// sequences), so long searches can be checkpointed and their results
// re-deployed later (e.g. by the transfer study) without re-searching.
Status SaveOutcome(const SearchOutcome& outcome, std::ostream* out);
Result<SearchOutcome> LoadOutcome(std::istream* in);
Status SaveOutcomeFile(const SearchOutcome& outcome, const std::string& path);
// kNotFound for a missing file, kInternal when it cannot be read and
// kInvalidArgument when its text is malformed.
Result<SearchOutcome> LoadOutcomeFile(const std::string& path);

// Bit-exact binary form (little-endian, raw IEEE doubles) used by the
// server wire protocol (FetchOutcome payloads) and the job manager's
// durable outcome files. Two SearchOutcomes encode to identical bytes iff
// they are field-for-field bit-identical, which is what the serve-vs-direct
// identity tests compare.
std::string SaveOutcomeBytes(const SearchOutcome& outcome);
Result<SearchOutcome> LoadOutcomeBytes(std::string_view bytes);

}  // namespace search
}  // namespace automc

#endif  // AUTOMC_SEARCH_REPORT_H_
