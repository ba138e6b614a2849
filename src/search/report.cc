#include "search/report.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/bytes.h"
#include "common/durable.h"
#include "search/snapshot_util.h"

namespace automc {
namespace search {

namespace {

// CSV-escapes a field by doubling quotes and wrapping in quotes.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Status WriteHistoryCsv(const SearchOutcome& outcome, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  *out << "executions,best_acc_feasible,best_acc_any\n";
  for (const HistoryPoint& h : outcome.history) {
    *out << h.executions << "," << h.best_acc << "," << h.best_acc_any
         << "\n";
  }
  if (!out->good()) return Status::Internal("stream write failure");
  return Status::OK();
}

Status WriteHistoryCsvFile(const SearchOutcome& outcome,
                           const std::string& path) {
  std::ostringstream out;
  AUTOMC_RETURN_IF_ERROR(WriteHistoryCsv(outcome, &out));
  return durable::AtomicWriteFile(path, out.str());
}

Status WriteParetoCsv(const SearchOutcome& outcome, const SearchSpace& space,
                      std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  if (outcome.pareto_schemes.size() != outcome.pareto_points.size()) {
    return Status::InvalidArgument("outcome arrays out of sync");
  }
  *out << "acc,params,flops,pr,fr,scheme\n";
  for (size_t i = 0; i < outcome.pareto_points.size(); ++i) {
    const EvalPoint& p = outcome.pareto_points[i];
    *out << p.acc << "," << p.params << "," << p.flops << "," << p.pr << ","
         << p.fr << "," << Quote(space.SchemeToString(outcome.pareto_schemes[i]))
         << "\n";
  }
  if (!out->good()) return Status::Internal("stream write failure");
  return Status::OK();
}

Status WriteParetoCsvFile(const SearchOutcome& outcome,
                          const SearchSpace& space, const std::string& path) {
  std::ostringstream out;
  AUTOMC_RETURN_IF_ERROR(WriteParetoCsv(outcome, space, &out));
  return durable::AtomicWriteFile(path, out.str());
}

Status SaveOutcome(const SearchOutcome& outcome, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  if (outcome.pareto_schemes.size() != outcome.pareto_points.size()) {
    return Status::InvalidArgument("outcome arrays out of sync");
  }
  *out << "AUTOMC_OUTCOME 1\n";
  *out << "executions " << outcome.executions << "\n";
  *out << "history " << outcome.history.size() << "\n";
  out->precision(17);
  for (const HistoryPoint& h : outcome.history) {
    *out << h.executions << " " << h.best_acc << " " << h.best_acc_any
         << "\n";
  }
  *out << "pareto " << outcome.pareto_schemes.size() << "\n";
  for (size_t i = 0; i < outcome.pareto_schemes.size(); ++i) {
    const EvalPoint& p = outcome.pareto_points[i];
    *out << p.acc << " " << p.params << " " << p.flops << " " << p.pr << " "
         << p.fr << " " << outcome.pareto_schemes[i].size();
    for (int s : outcome.pareto_schemes[i]) *out << " " << s;
    *out << "\n";
  }
  if (!out->good()) return Status::Internal("stream write failure");
  return Status::OK();
}

Result<SearchOutcome> LoadOutcome(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null stream");
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version) || magic != "AUTOMC_OUTCOME" ||
      version != 1) {
    return Status::InvalidArgument("bad outcome header");
  }
  SearchOutcome out;
  std::string key;
  size_t count = 0;
  if (!(*in >> key >> out.executions) || key != "executions") {
    return Status::InvalidArgument("missing executions");
  }
  if (!(*in >> key >> count) || key != "history" || count > 1000000) {
    return Status::InvalidArgument("bad history count");
  }
  out.history.resize(count);
  for (HistoryPoint& h : out.history) {
    if (!(*in >> h.executions >> h.best_acc >> h.best_acc_any)) {
      return Status::InvalidArgument("truncated history");
    }
  }
  if (!(*in >> key >> count) || key != "pareto" || count > 1000000) {
    return Status::InvalidArgument("bad pareto count");
  }
  out.pareto_points.resize(count);
  out.pareto_schemes.resize(count);
  for (size_t i = 0; i < count; ++i) {
    EvalPoint& p = out.pareto_points[i];
    size_t len = 0;
    if (!(*in >> p.acc >> p.params >> p.flops >> p.pr >> p.fr >> len) ||
        len > 10000) {
      return Status::InvalidArgument("truncated pareto entry");
    }
    out.pareto_schemes[i].resize(len);
    for (size_t j = 0; j < len; ++j) {
      if (!(*in >> out.pareto_schemes[i][j])) {
        return Status::InvalidArgument("truncated scheme");
      }
    }
  }
  return out;
}

Status SaveOutcomeFile(const SearchOutcome& outcome, const std::string& path) {
  std::ostringstream out;
  AUTOMC_RETURN_IF_ERROR(SaveOutcome(outcome, &out));
  return durable::AtomicWriteFile(path, out.str());
}

Result<SearchOutcome> LoadOutcomeFile(const std::string& path) {
  AUTOMC_ASSIGN_OR_RETURN(std::string bytes, durable::ReadFile(path));
  std::istringstream in(std::move(bytes));
  return LoadOutcome(&in);
}

std::string SaveOutcomeBytes(const SearchOutcome& outcome) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(outcome.pareto_schemes.size()));
  for (size_t i = 0; i < outcome.pareto_schemes.size(); ++i) {
    w.Ints(outcome.pareto_schemes[i]);
    WritePoint(&w, outcome.pareto_points[i]);
  }
  w.U32(static_cast<uint32_t>(outcome.history.size()));
  for (const HistoryPoint& h : outcome.history) {
    w.I32(h.executions);
    w.F64(h.best_acc);
    w.F64(h.best_acc_any);
  }
  w.I32(outcome.executions);
  return w.Take();
}

Result<SearchOutcome> LoadOutcomeBytes(std::string_view bytes) {
  ByteReader r(bytes);
  SearchOutcome out;
  // Append as entries decode: a declared count must not size memory.
  uint32_t pareto = 0;
  if (!r.U32(&pareto)) {
    return Status::InvalidArgument("truncated outcome bytes");
  }
  for (uint32_t i = 0; i < pareto; ++i) {
    if (!r.Ints(&out.pareto_schemes.emplace_back()) ||
        !ReadPoint(&r, &out.pareto_points.emplace_back())) {
      return Status::InvalidArgument("truncated outcome pareto entry");
    }
  }
  uint32_t hist = 0;
  if (!r.U32(&hist)) return Status::InvalidArgument("truncated outcome bytes");
  for (uint32_t i = 0; i < hist; ++i) {
    HistoryPoint& h = out.history.emplace_back();
    if (!r.I32(&h.executions) || !r.F64(&h.best_acc) ||
        !r.F64(&h.best_acc_any)) {
      return Status::InvalidArgument("truncated outcome history entry");
    }
  }
  if (!r.I32(&out.executions) || !r.Done()) {
    return Status::InvalidArgument("malformed outcome bytes");
  }
  return out;
}

}  // namespace search
}  // namespace automc
