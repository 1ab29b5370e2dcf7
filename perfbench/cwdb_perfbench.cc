// cwdb_perfbench: the measuring half of the repo benchmark (run.py builds
// this binary and runs it once per workload).
//
// Every workload opens one database per Table 2 row (paper §5.3), loads the
// TPC-B tables into each, and then measures the rows interleaved round-robin
// so machine drift spreads over all rows alike. The benchmark drives the
// public API itself, in a loop that draws the same random sequence as
// TpcbWorkload::DoOperation, so it can time each Database call from
// outside. After the measured phase each row runs a restart cycle: it takes
// a checkpoint, commits a fixed tail of operations, is dropped without
// Close() (a crash), and is reopened, verified and audited.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs every chunk twice,
// once untraced and once with one span per Database call kept in memory,
// and prints the per-layer metrics. The last stdout line is the result
// object {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/codeword.h"
#include "common/codeword_kernel.h"
#include "common/file_util.h"
#include "common/random.h"
#include "core/database.h"
#include "workload/tpcb.h"

#ifndef CWDB_PERFBENCH_BUILD_TYPE
#define CWDB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace cwdb::perfbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Table 2 rows and workload shapes.

struct RowSpec {
  const char* name;
  ProtectionScheme scheme;
  uint32_t region_size;
  double paper_pct;  // The paper's "% slower" (Table 2).
};

constexpr RowSpec kRows[] = {
    {"none", ProtectionScheme::kNone, 512, 0.0},
    {"data_cw", ProtectionScheme::kDataCodeword, 512, 8.5},
    {"precheck_64", ProtectionScheme::kReadPrecheck, 64, 12.2},
    {"precheck_512", ProtectionScheme::kReadPrecheck, 512, 25.4},
    {"precheck_8k", ProtectionScheme::kReadPrecheck, 8192, 72.4},
    {"readlog", ProtectionScheme::kReadLog, 512, 17.1},
    {"cw_readlog", ProtectionScheme::kCodewordReadLog, 512, 22.4},
    {"hardware", ProtectionScheme::kHardware, 512, 38.2},
};
constexpr int kRowCount = static_cast<int>(std::size(kRows));
constexpr int kNoneRow = 0;
constexpr int kDataCwRow = 1;

struct WorkloadSpec {
  const char* name;
  uint64_t accounts;
  uint64_t tellers;
  uint64_t branches;
  uint32_t ops_per_txn;
  double read_fraction;
  int clients;
  size_t shards;
  uint64_t chunk_ops;   // Operations per row per round (whole transactions).
  uint64_t warmup_ops;  // Untimed operations after the load.
  uint64_t tail_ops;    // Post-checkpoint operations redone at restart.
  // Upper bound on operations one row may run, which sizes its History
  // table; the measured phase ends early rather than overflow it.
  uint64_t max_row_ops;
};

// Why each workload exists is recorded in BENCHMARK.json. read_mostly
// commits every 500 operations rather than 100: on a disk-backed directory
// the fdatasync of a 100-operation transaction is about 30% of its time.
constexpr WorkloadSpec kWorkloads[] = {
    {"table2", 100000, 10000, 1000, 500, 0.0, 1, 1, 5000, 5000, 10000,
     250000},
    {"read_mostly", 100000, 10000, 1000, 500, 0.9, 1, 1, 25000, 25000, 20000,
     2000000},
    {"durable_commit", 5000, 500, 50, 1, 0.0, 4, 4, 3000, 1000, 2000, 120000},
};

// The --small table sizes, for the self-test.
constexpr uint64_t kSmallAccounts = 10000;
constexpr uint64_t kSmallTellers = 1000;
constexpr uint64_t kSmallBranches = 100;

// ---------------------------------------------------------------------------
// Spans: one per Database call, parented to its TPC-B operation span (or,
// for Begin and Commit, to the transaction span). Kept in memory and
// written out when the run ends.

enum SpanKind : uint8_t {
  kTxnSpan,
  kOpSpan,
  kBeginSpan,
  kReadFieldSpan,
  kUpdateSpan,
  kInsertSpan,
  kCommitSpan,
  kSpanKinds
};
const char* const kSpanNames[kSpanKinds] = {"txn",    "op",     "Begin",
                                            "ReadField", "Update", "Insert",
                                            "Commit"};

struct Span {
  uint64_t id;
  uint64_t parent;
  uint8_t kind;
  uint8_t row;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Span store of one client thread; concurrent clients each fill their own
/// and Merge() them afterwards. Ids are unique across all logs.
class SpanLog {
 public:
  static constexpr size_t kMaxKept = 1 << 18;

  static uint64_t NextId() {
    static std::atomic<uint64_t> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void Add(uint64_t id, uint64_t parent, SpanKind kind, int row,
           uint64_t start, uint64_t end) {
    Agg& a = agg_[row][kind];
    a.count++;
    a.total_ns += end - start;
    if (spans_.size() < kMaxKept) {
      spans_.push_back(Span{id, parent, kind, static_cast<uint8_t>(row),
                            start, end});
    } else {
      ++dropped_;
    }
  }

  void Merge(const SpanLog& other) {
    for (int r = 0; r < kRowCount; ++r) {
      for (int k = 0; k < kSpanKinds; ++k) {
        agg_[r][k].count += other.agg_[r][k].count;
        agg_[r][k].total_ns += other.agg_[r][k].total_ns;
      }
    }
    for (const Span& sp : other.spans_) {
      if (spans_.size() < kMaxKept) {
        spans_.push_back(sp);
      } else {
        ++dropped_;
      }
    }
    dropped_ += other.dropped_;
  }

  uint64_t count(int row, SpanKind kind) const { return agg_[row][kind].count; }
  uint64_t total_ns(int row, SpanKind kind) const {
    return agg_[row][kind].total_ns;
  }

  /// Writes the kept spans as CSV: id,parent,name,row,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,name,row,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu,%llu,%s,%s,%llu,%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   kSpanNames[s.kind], kRows[s.row].name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

  size_t kept() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  Agg agg_[kRowCount][kSpanKinds] = {};
};

/// Times `fn` as a span when `log` is non-null; otherwise just calls it.
template <typename Fn>
auto Timed(SpanLog* log, int row, SpanKind kind, uint64_t parent, Fn&& fn) {
  if (log == nullptr) return fn();
  const uint64_t start = NowNs();
  auto result = fn();
  log->Add(log->NextId(), parent, kind, row, start, NowNs());
  return result;
}

// ---------------------------------------------------------------------------
// Registry readings: counters and histograms summed over measured chunks.

const char* const kCounterNames[] = {
    "protect.prechecks",      "protect.codeword_folds",
    "protect.mprotect_calls", "protect.validated_reads",
    "protect.validated_fallbacks", "wal.bytes_appended",
    "wal.appends",            "wal.flushes",
    "txn.commits",            "txn.lock_waits",
};
constexpr size_t kCounters = std::size(kCounterNames);
enum CounterIndex {
  kPrechecks,
  kFolds,
  kMprotectCalls,
  kValidatedReads,
  kValidatedFallbacks,
  kWalBytes,
  kWalAppends,
  kWalFlushes,
  kTxnCommits,
  kLockWaits,
};

const char* const kHistogramNames[] = {"wal.flush_latency_ns",
                                       "txn.lock_wait_ns"};
constexpr size_t kHistograms = std::size(kHistogramNames);

struct Registry {
  uint64_t counters[kCounters] = {};
  uint64_t buckets[kHistograms][Histogram::kBuckets] = {};

  static Registry Read(Database* db) {
    Registry r;
    MetricsRegistry* m = db->metrics();
    for (size_t i = 0; i < kCounters; ++i) {
      r.counters[i] = m->counter(kCounterNames[i])->Value();
    }
    for (size_t h = 0; h < kHistograms; ++h) {
      Histogram::Snapshot s = m->histogram(kHistogramNames[h])->Capture();
      std::copy(std::begin(s.buckets), std::end(s.buckets), r.buckets[h]);
    }
    return r;
  }

  void AddDelta(const Registry& before, const Registry& after) {
    for (size_t i = 0; i < kCounters; ++i) {
      counters[i] += after.counters[i] - before.counters[i];
    }
    for (size_t h = 0; h < kHistograms; ++h) {
      for (size_t b = 0; b < Histogram::kBuckets; ++b) {
        buckets[h][b] += after.buckets[h][b] - before.buckets[h][b];
      }
    }
  }

  /// Upper bound of the bucket holding quantile q (0 when empty), in the
  /// histogram's own unit.
  uint64_t Quantile(size_t h, double q) const {
    uint64_t total = 0;
    for (uint64_t c : buckets[h]) total += c;
    if (total == 0) return 0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
    uint64_t seen = 0;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      seen += buckets[h][b];
      if (seen >= rank) return Histogram::BucketUpperBound(b);
    }
    return Histogram::BucketUpperBound(Histogram::kBuckets - 1);
  }
};

// ---------------------------------------------------------------------------
// Statistics helpers.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Pinning the single client thread (threads the engine starts at Open are
// left unpinned).

class ScopedPin {
 public:
  explicit ScopedPin(bool enable) {
    if (!enable || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpu = c;
    }
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedPin() {
    if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// ---------------------------------------------------------------------------
// One database per Table 2 row.

struct RowState {
  int index = 0;
  DatabaseOptions options;
  std::unique_ptr<Database> db;
  std::unique_ptr<TpcbWorkload> tables;  // Table ids and the invariant check.
  std::vector<Random> clients;  // One generator per client.
  uint64_t acked_ops = 0;     // Operations in committed transactions.
  uint64_t acked_writes = 0;  // Of those, updates (one History row each).
  uint64_t measured_ops = 0;  // Of those, in measured chunks.
  uint64_t measured_ns = 0;   // Wall time of untraced measured chunks.
  uint64_t measured_txns = 0;
  std::vector<double> rates;         // Untraced ops/s, one per chunk.
  std::vector<double> traced_rates;  // Traced ops/s, one per chunk.
  uint64_t traced_ns = 0;            // Client time in traced chunks.
  uint64_t traced_ops = 0;
  Registry registry;                 // Deltas over measured chunks.
  double setup_s = 0;
  double disk_bytes_per_user_byte = 0;
  std::vector<double> checkpoint_s, restart_s, audit_s, fixed_s;
  std::vector<double> pages_written, redo_records;
};

struct RunTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;  // Deadlock victims re-run.
  uint64_t txns_attempted = 0;
  std::vector<double> commit_us;  // Begin to Commit return, untraced txns.
  std::vector<std::string> errors;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, bool small,
        std::string data_dir)
      : spec_(spec), seed_(seed), data_dir_(std::move(data_dir)) {
    config_.accounts = small ? kSmallAccounts : spec.accounts;
    config_.tellers = small ? kSmallTellers : spec.tellers;
    config_.branches = small ? kSmallBranches : spec.branches;
    config_.ops_per_txn = spec.ops_per_txn;
    config_.read_fraction = spec.read_fraction;
    config_.seed = seed;
    // One History row per update: (1 - read_fraction) of the operations,
    // with 5% of max_row_ops to spare for the random draw of reads.
    config_.history_capacity =
        spec.read_fraction > 0
            ? static_cast<uint64_t>(static_cast<double>(spec.max_row_ops) *
                                    (1.0 - spec.read_fraction)) +
                  spec.max_row_ops / 20
            : spec.max_row_ops;
  }

  const WorkloadSpec& spec() const { return spec_; }
  RowState& row(int i) { return rows_[i]; }
  RunTotals& totals() { return totals_; }
  const TpcbConfig& config() const { return config_; }

  /// Opens, loads, warms and checkpoints every row's database.
  bool SetupAll() {
    for (int i = 0; i < kRowCount; ++i) {
      if (!SetupRow(i)) return false;
    }
    return true;
  }

  /// Opens row i's database, loads the tables, runs the warm-up and takes
  /// a checkpoint; the elapsed time is the row's setup_s.
  bool SetupRow(int i) {
    RowState& r = rows_[i];
    r.index = i;
    r.options.path = data_dir_ + "/" + kRows[i].name;
    r.options.page_size = 8192;
    r.options.arena_size = config_.MinArenaSize(r.options.page_size) +
                           (8u << 20);
    r.options.arena_size = (r.options.arena_size + r.options.page_size - 1) &
                           ~uint64_t{r.options.page_size - 1};
    r.options.shards = spec_.shards;
    r.options.protection.scheme = kRows[i].scheme;
    r.options.protection.region_size = kRows[i].region_size;
    for (int c = 0; c < spec_.clients; ++c) {
      // One client uses the workload seed as TpcbWorkload does; several
      // clients seed like TpcbWorkload::RunConcurrent.
      r.clients.emplace_back(spec_.clients == 1
                                 ? seed_
                                 : seed_ * 7919 + static_cast<uint64_t>(c) + 1);
    }

    const uint64_t t0 = NowNs();
    auto db = Database::Open(r.options);
    if (!db.ok()) return Check(r, db.status(), "open");
    r.db = std::move(db).value();
    r.tables = std::make_unique<TpcbWorkload>(r.db.get(), config_);
    if (!Check(r, r.tables->Setup(), "load")) return false;
    if (RunChunk(i, spec_.warmup_ops, nullptr, false) == 0) return false;
    if (!Check(r, r.db->Checkpoint(), "checkpoint")) return false;
    r.setup_s = Seconds(NowNs() - t0);

    uint64_t disk = 0;
    std::error_code ec;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(r.options.path, ec)) {
      if (e.is_regular_file(ec)) disk += e.file_size(ec);
    }
    const uint64_t records = config_.accounts + config_.tellers +
                             config_.branches + r.acked_writes;
    r.disk_bytes_per_user_byte =
        static_cast<double>(disk) /
        static_cast<double>(records * config_.record_size);
    return Verify(r, "after setup");
  }

  /// Runs `ops` operations (whole transactions) on row `i`; with `log`
  /// every Database call becomes a span. Returns the wall time in ns, or 0
  /// on failure (recorded in totals).
  uint64_t RunChunk(int i, uint64_t ops, SpanLog* log, bool measured) {
    RowState& r = rows_[i];
    ScopedPin pin(spec_.clients == 1);
    const Registry before = Registry::Read(r.db.get());
    const uint64_t start = NowNs();
    const bool ok = RunOps(r, ops, log, measured);
    const uint64_t wall = NowNs() - start;
    if (!ok) return 0;
    if (measured) {
      r.registry.AddDelta(before, Registry::Read(r.db.get()));
      const double rate = static_cast<double>(ops) / Seconds(wall);
      if (log != nullptr) {
        r.traced_rates.push_back(rate);
        // Client time, so concurrent calls do not overlap in the ladder.
        r.traced_ns += wall * static_cast<uint64_t>(spec_.clients);
        r.traced_ops += ops;
      } else {
        r.rates.push_back(rate);
        r.measured_ns += wall;
      }
      r.measured_ops += ops;
    }
    return wall;
  }

  /// Restart cycle: checkpoint, the workload's tail of operations, crash,
  /// reopen, verify, audit. With `probe_fixed`, the tail is four times as
  /// long, so redo cost stands out, and a reopen that has nothing to redo is
  /// timed too. Returns false on failure (recorded in totals).
  bool RestartCycle(int i, bool probe_fixed) {
    RowState& r = rows_[i];
    const uint64_t pages_before =
        r.db->metrics()->counter("ckpt.pages_written")->Value();
    uint64_t t0 = NowNs();
    if (!Check(r, r.db->Checkpoint(), "checkpoint")) return false;
    r.checkpoint_s.push_back(Seconds(NowNs() - t0));
    r.pages_written.push_back(static_cast<double>(
        r.db->metrics()->counter("ckpt.pages_written")->Value() -
        pages_before));
    const uint64_t tail = spec_.tail_ops * (probe_fixed ? 4 : 1);
    if (RunChunk(i, tail, nullptr, false) == 0) return false;

    if (!Reopen(r, &r.restart_s)) return false;
    r.redo_records.push_back(static_cast<double>(
        r.db->last_recovery_report().redo_records_applied));
    t0 = NowNs();
    auto audit = r.db->Audit();
    const double audit_s = Seconds(NowNs() - t0);
    if (!Check(r, audit.ok() ? Status::OK() : audit.status(), "audit")) {
      return false;
    }
    if (!audit->clean) {
      return Fail(r, "audit after reopen found corruption");
    }
    r.audit_s.push_back(audit_s);

    if (probe_fixed) {
      if (!Check(r, r.db->Checkpoint(), "checkpoint")) return false;
      if (!Reopen(r, &r.fixed_s)) return false;
    }
    return true;
  }

  /// Verifies the TPC-B invariant and that History holds exactly the
  /// acknowledged updates.
  bool Verify(RowState& r, const char* when) {
    Status s = r.tables->CheckConsistency();
    if (!s.ok()) {
      return Fail(r, std::string(when) + ": " + s.ToString());
    }
    const uint64_t rows = r.db->CountRecords(r.tables->history());
    if (rows != r.acked_writes) {
      return Fail(r, std::string(when) + ": history holds " +
                         std::to_string(rows) + " rows, " +
                         std::to_string(r.acked_writes) +
                         " updates acknowledged");
    }
    return true;
  }

  /// Room left in row i's History table, in operations.
  bool HasRoomFor(int i, uint64_t ops) const {
    return rows_[i].acked_ops + ops <= spec_.max_row_ops;
  }

 private:
  bool Fail(RowState& r, const std::string& what) {
    totals_.errors.push_back(std::string(kRows[r.index].name) + ": " + what);
    return false;
  }
  bool Check(RowState& r, const Status& s, const char* what) {
    if (s.ok()) return true;
    return Fail(r, std::string(what) + ": " + s.ToString());
  }

  /// Drops the database without Close() and opens it again, appending the
  /// Open time to `open_s`.
  bool Reopen(RowState& r, std::vector<double>* open_s) {
    r.tables.reset();
    r.db.reset();
    const uint64_t t0 = NowNs();
    auto db = Database::Open(r.options);
    const double s = Seconds(NowNs() - t0);
    if (!db.ok()) return Check(r, db.status(), "reopen");
    r.db = std::move(db).value();
    open_s->push_back(s);
    r.tables = std::make_unique<TpcbWorkload>(r.db.get(), config_);
    if (!Check(r, r.tables->Attach(), "attach")) return false;
    return Verify(r, "after reopen");
  }

  /// Reads the balance at (table, slot), adds delta and writes it back:
  /// TpcbWorkload::UpdateBalance with each call timed.
  Status UpdateBalance(RowState& r, Transaction* txn, TableId table,
                       uint32_t slot, int64_t delta, SpanLog* log,
                       uint64_t op_span) {
    int64_t balance = 0;
    CWDB_RETURN_IF_ERROR(Timed(log, r.index, kReadFieldSpan, op_span, [&] {
      return r.db->ReadField(txn, table, slot, TpcbLayout::kBalanceOff, 8,
                             &balance);
    }));
    balance += delta;
    return Timed(log, r.index, kUpdateSpan, op_span, [&] {
      return r.db->Update(
          txn, table, slot, TpcbLayout::kBalanceOff,
          Slice(reinterpret_cast<const char*>(&balance), 8));
    });
  }

  /// One TPC-B operation, drawing from `rng` exactly as
  /// TpcbWorkload::DoOperation does. Sets *wrote when the operation
  /// updated balances and appended a History row.
  Status DoOperation(RowState& r, Transaction* txn, Random* rng,
                     SpanLog* log, uint64_t txn_span, bool* wrote) {
    const int64_t delta =
        static_cast<int64_t>(rng->Uniform(1999999)) - 999999;
    const uint64_t account = rng->Uniform(config_.accounts);
    const uint64_t teller = rng->Uniform(config_.tellers);
    const uint64_t branch = teller % config_.branches;
    const uint64_t op_start = log != nullptr ? NowNs() : 0;
    const uint64_t op_span = log != nullptr ? SpanLog::NextId() : 0;
    *wrote = false;
    Status s = [&]() -> Status {
      if (config_.read_fraction > 0.0 &&
          rng->Uniform(1000000) <
              static_cast<uint64_t>(config_.read_fraction * 1000000)) {
        int64_t balance = 0;
        return Timed(log, r.index, kReadFieldSpan, op_span, [&] {
          return r.db->ReadField(txn, r.tables->accounts(),
                                 static_cast<uint32_t>(account),
                                 TpcbLayout::kBalanceOff, 8, &balance);
        });
      }
      CWDB_RETURN_IF_ERROR(UpdateBalance(r, txn, r.tables->accounts(),
                                         static_cast<uint32_t>(account),
                                         delta, log, op_span));
      CWDB_RETURN_IF_ERROR(UpdateBalance(r, txn, r.tables->tellers(),
                                         static_cast<uint32_t>(teller), delta,
                                         log, op_span));
      CWDB_RETURN_IF_ERROR(UpdateBalance(r, txn, r.tables->branches(),
                                         static_cast<uint32_t>(branch), delta,
                                         log, op_span));
      std::string hist(config_.record_size, '\0');
      std::memcpy(hist.data() + TpcbLayout::kHistAccountOff, &account, 8);
      std::memcpy(hist.data() + TpcbLayout::kHistTellerOff, &teller, 8);
      std::memcpy(hist.data() + TpcbLayout::kHistBranchOff, &branch, 8);
      std::memcpy(hist.data() + TpcbLayout::kHistDeltaOff, &delta, 8);
      auto rid = Timed(log, r.index, kInsertSpan, op_span, [&] {
        return r.db->Insert(txn, r.tables->history(), hist);
      });
      *wrote = rid.ok();
      return rid.ok() ? Status::OK() : rid.status();
    }();
    if (log != nullptr) {
      log->Add(op_span, txn_span, kOpSpan, r.index, op_start, NowNs());
    }
    return s;
  }

  /// What one client did in a chunk; folded into the totals afterwards.
  struct ClientResult {
    uint64_t attempted = 0, failed = 0, retries = 0, txns = 0;
    uint64_t acked_ops = 0, acked_writes = 0;
    std::vector<double> commit_us;
    Status error;
  };

  /// Client `c` claims whole transactions from `*next` until `ops`
  /// operations are claimed. A deadlock victim rolls back and retries; any
  /// other failure stops the client.
  void RunClient(RowState& r, int c, std::atomic<uint64_t>* next,
                 uint64_t ops, SpanLog* log, ClientResult* out) {
    Random* rng = &r.clients[c];
    const uint32_t per_txn = config_.ops_per_txn;
    while (out->error.ok()) {
      const uint64_t done = next->fetch_add(per_txn);
      if (done >= ops) break;
      const uint64_t n = std::min<uint64_t>(per_txn, ops - done);
      while (true) {
        const uint64_t t0 = NowNs();
        const uint64_t txn_span = log != nullptr ? SpanLog::NextId() : 0;
        ++out->txns;
        auto txn = Timed(log, r.index, kBeginSpan, txn_span,
                         [&] { return r.db->Begin(); });
        if (!txn.ok()) {
          out->error = txn.status();
          break;
        }
        Status s;
        uint64_t writes = 0;
        for (uint64_t k = 0; k < n && s.ok(); ++k) {
          ++out->attempted;
          bool wrote = false;
          s = DoOperation(r, *txn, rng, log, txn_span, &wrote);
          writes += wrote ? 1 : 0;
        }
        if (s.ok()) {
          s = Timed(log, r.index, kCommitSpan, txn_span,
                    [&] { return r.db->Commit(*txn); });
        } else {
          (void)r.db->Abort(*txn);
        }
        const uint64_t t1 = NowNs();
        if (s.ok()) {
          if (log != nullptr) {
            log->Add(txn_span, 0, kTxnSpan, r.index, t0, t1);
          } else {
            out->commit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          }
          out->acked_ops += n;
          out->acked_writes += writes;
          break;
        }
        if (!s.IsDeadlock()) {
          out->failed += n;
          out->error = s;
          break;
        }
        ++out->retries;
        std::this_thread::yield();
      }
    }
  }

  /// Runs `ops` operations on row `r` with the workload's clients: one
  /// client runs on the calling thread, several on their own threads.
  bool RunOps(RowState& r, uint64_t ops, SpanLog* log, bool measured) {
    std::atomic<uint64_t> next{0};
    const int clients = spec_.clients;
    std::vector<ClientResult> results(clients);
    if (clients == 1) {
      RunClient(r, 0, &next, ops, log, &results[0]);
    } else {
      std::vector<SpanLog> logs(log != nullptr ? clients : 0);
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          RunClient(r, c, &next, ops, log != nullptr ? &logs[c] : nullptr,
                    &results[c]);
        });
      }
      for (auto& t : threads) t.join();
      for (const SpanLog& l : logs) log->Merge(l);
    }
    bool ok = true;
    for (ClientResult& res : results) {
      totals_.attempted += res.attempted;
      totals_.failed += res.failed;
      totals_.retries += res.retries;
      totals_.txns_attempted += res.txns;
      r.acked_ops += res.acked_ops;
      r.acked_writes += res.acked_writes;
      if (measured) {
        r.measured_txns += res.commit_us.size();
        totals_.commit_us.insert(totals_.commit_us.end(),
                                 res.commit_us.begin(), res.commit_us.end());
      }
      if (!res.error.ok()) {
        ok = Check(r, res.error, "operation");
      }
    }
    return ok;
  }

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const std::string data_dir_;
  TpcbConfig config_;
  RowState rows_[kRowCount];
  RunTotals totals_;
};

// ---------------------------------------------------------------------------
// Output.

class MetricOut {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[96];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }
  void PrintTable(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& e : entries_) {
      std::printf("  %-36s %16.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

const char* FsName(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
  }
}

double PeakRssMib() {
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// GB/s of CodewordCompute on the active kernel tier over `size`-byte
/// regions: median of five ~20 ms passes.
double CodewordGbps(size_t size) {
  constexpr size_t kBuffer = 4 << 20;
  std::vector<uint8_t> buf(kBuffer);
  Random rng(size);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  std::vector<double> passes;
  volatile codeword_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    uint64_t bytes = 0;
    const uint64_t t0 = NowNs();
    uint64_t now = t0;
    codeword_t acc = 0;
    while (now - t0 < 20'000'000) {
      for (size_t off = 0; off + size <= kBuffer; off += size) {
        acc ^= CodewordCompute(buf.data() + off, size);
      }
      bytes += kBuffer - kBuffer % size;
      now = NowNs();
    }
    sink = sink ^ acc;
    passes.push_back(static_cast<double>(bytes) / static_cast<double>(now - t0));
  }
  return Median(passes);
}

/// Held when every per-chunk rate of `fast` beats the quartile range of
/// `slow`; not held when the reverse; otherwise unresolved.
const char* ShapeVerdict(const std::vector<double>& fast,
                         const std::vector<double>& slow) {
  if (fast.empty() || slow.empty()) return "unresolved";
  const double f1 = Quantile(fast, 0.25), f3 = Quantile(fast, 0.75);
  const double s1 = Quantile(slow, 0.25), s3 = Quantile(slow, 0.75);
  if (f1 > s3) return "held";
  if (f3 < s1) return "not held";
  return "unresolved";
}

void PrintShapeReport(Bench& bench) {
  auto rates = [&](int i) -> const std::vector<double>& {
    return bench.row(i).rates;
  };
  const double none = Median(rates(kNoneRow));
  std::printf("Table 2 shape (%s; median ops/s over chunks, IQR as %% of "
              "median):\n", bench.spec().name);
  std::printf("  %-14s %12s %7s %9s %9s\n", "row", "ops/s", "IQR%",
              "%slower", "paper%");
  for (int i = 0; i < kRowCount; ++i) {
    const double m = Median(rates(i));
    const double iqr = Quantile(rates(i), 0.75) - Quantile(rates(i), 0.25);
    std::printf("  %-14s %12.0f %6.1f%% %8.1f%% %8.1f%%\n", kRows[i].name, m,
                m > 0 ? 100 * iqr / m : 0, none > 0 ? 100 * (1 - m / none) : 0,
                kRows[i].paper_pct);
  }
  // A claim over several pairs: not held if any pair is not, held if all are.
  auto all_of = [](const std::vector<std::string>& verdicts) -> std::string {
    std::string all = "held";
    for (const std::string& v : verdicts) {
      if (v == "not held") return v;
      if (v == "unresolved") all = v;
    }
    return all;
  };
  std::vector<std::string> cheapest, slowest;
  for (int i = 2; i < kRowCount; ++i) {
    cheapest.push_back(ShapeVerdict(rates(kDataCwRow), rates(i)));
  }
  for (int i = 0; i < kRowCount - 1; ++i) {
    slowest.push_back(ShapeVerdict(rates(i), rates(kRowCount - 1)));
  }
  std::printf("  check: Data CW is the cheapest protected row: %s\n",
              all_of(cheapest).c_str());
  std::printf("  check: precheck 64 <= 512 (cost): %s\n",
              ShapeVerdict(rates(2), rates(3)));
  std::printf("  check: precheck 512 <= 8K (cost): %s\n",
              ShapeVerdict(rates(3), rates(4)));
  std::printf("  check: ReadLog <= CW ReadLog (cost): %s\n",
              ShapeVerdict(rates(5), rates(6)));
  std::printf("  check: Memory Protection is the slowest row: %s\n",
              all_of(slowest).c_str());
  const double p8k = none > 0 ? 100 * (1 - Median(rates(4)) / none) : 0;
  std::printf("  precheck_8k measures %.1f%% slower; the paper reports "
              "72.4%%. Every image fits in the last-level cache, so no "
              "workload measures DRAM-bound behaviour.\n", p8k);
}

/// Checks that the benchmark's operation loop, untraced and traced, does
/// exactly what TpcbWorkload::RunOps does with the same seed: the same
/// records and the same log volume. Returns a process exit code.
int SelfTest(const std::string& dir, uint64_t seed) {
  const WorkloadSpec& spec = kWorkloads[0];  // table2: one client.
  constexpr uint64_t kOps = 2000;
  Bench bench(spec, seed, /*small=*/true, dir + "/bench");
  SpanLog spans;
  bool ok = bench.SetupRow(kDataCwRow) &&
            bench.RunChunk(kDataCwRow, kOps, nullptr, false) > 0 &&
            bench.RunChunk(kDataCwRow, kOps, &spans, false) > 0;
  for (const auto& e : bench.totals().errors) {
    std::fprintf(stderr, "selftest: %s\n", e.c_str());
  }
  if (!ok) return 1;
  RowState& r = bench.row(kDataCwRow);

  DatabaseOptions ref_options = r.options;
  ref_options.path = dir + "/reference";
  auto ref_db = Database::Open(ref_options);
  if (!ref_db.ok()) {
    std::fprintf(stderr, "selftest: open: %s\n",
                 ref_db.status().ToString().c_str());
    return 1;
  }
  TpcbWorkload ref(ref_db->get(), bench.config());
  Status s = ref.Setup();
  if (s.ok()) s = ref.RunOps(spec.warmup_ops);
  if (s.ok()) s = (*ref_db)->Checkpoint();
  if (s.ok()) s = ref.RunOps(2 * kOps);
  if (!s.ok()) {
    std::fprintf(stderr, "selftest: reference run: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  int mismatches = 0;
  const DbImage* a = r.db->image();
  const DbImage* b = (*ref_db)->image();
  const uint32_t size = bench.config().record_size;
  for (TableId t : {ref.accounts(), ref.tellers(), ref.branches(),
                    ref.history()}) {
    const uint64_t capacity = b->table_meta(t)->capacity;
    for (uint32_t slot = 0; slot < capacity; ++slot) {
      const bool used = b->SlotAllocated(t, slot);
      if (a->SlotAllocated(t, slot) != used ||
          (used && std::memcmp(a->At(a->RecordOff(t, slot)),
                               b->At(b->RecordOff(t, slot)), size) != 0)) {
        ++mismatches;
      }
    }
  }
  const uint64_t log_a = r.db->metrics()->counter("wal.bytes_appended")->Value();
  const uint64_t log_b =
      (*ref_db)->metrics()->counter("wal.bytes_appended")->Value();
  const uint64_t traced_ops = spans.count(kDataCwRow, kOpSpan);
  std::printf("selftest: %d record mismatches; log bytes %llu vs %llu; "
              "%llu traced operations\n",
              mismatches, static_cast<unsigned long long>(log_a),
              static_cast<unsigned long long>(log_b),
              static_cast<unsigned long long>(traced_ops));
  const bool pass = mismatches == 0 && log_a == log_b && traced_ops == kOps;
  std::printf("selftest: %s\n", pass ? "ok" : "FAILED");
  return pass ? 0 : 1;
}

/// Per-row values of `fn`, in row order.
template <typename Fn>
std::vector<double> PerRow(Bench& bench, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < kRowCount; ++i) v.push_back(fn(bench.row(i)));
  return v;
}

/// The end-to-end metrics of an untraced run, plus the Table 2 shape report.
MetricOut EndToEndMetrics(Bench& bench, bool ok) {
  MetricOut out;
  const RunTotals& totals = bench.totals();
  out.Add("setup_s",
          Median(PerRow(bench, [](RowState& r) { return r.setup_s; })), "s");
  for (int i = 0; i < kRowCount; ++i) {
    out.Add(std::string("ops_s.") + kRows[i].name,
            Median(bench.row(i).rates), "1/s");
  }
  uint64_t txns = 0, ns = 0;
  for (int i = 0; i < kRowCount; ++i) {
    txns += bench.row(i).measured_txns;
    ns += bench.row(i).measured_ns;
  }
  out.Add("txns_s", ns > 0 ? static_cast<double>(txns) / Seconds(ns) : 0,
          "1/s");
  out.Add("commit_p50_us", Quantile(totals.commit_us, 0.50), "us");
  out.Add("commit_p99_us", Quantile(totals.commit_us, 0.99), "us");
  out.Add("restart_s", GeoMean(PerRow(bench, [](RowState& r) {
            return Median(r.restart_s);
          })), "s");
  out.Add("checkpoint_s", GeoMean(PerRow(bench, [](RowState& r) {
            return Median(r.checkpoint_s);
          })), "s");
  out.Add("disk_bytes_per_user_byte", GeoMean(PerRow(bench, [](RowState& r) {
            return r.disk_bytes_per_user_byte;
          })), "B/B");
  out.Add("peak_rss_mib", PeakRssMib(), "MiB");
  if (ok) PrintShapeReport(bench);
  std::printf("commit latency: %zu transactions sampled\n",
              totals.commit_us.size());
  return out;
}

/// The per-layer metrics of a traced run, plus the cost ladder; writes the
/// kept spans to `trace_out` when given.
MetricOut PerLayerMetrics(Bench& bench, const SpanLog& spans,
                          const std::string& trace_out) {
  MetricOut out;
  const RunTotals& totals = bench.totals();
  for (size_t size : {size_t{64}, size_t{512}, size_t{8192}}) {
    out.Add("common.codeword_gbps." + std::to_string(size),
            CodewordGbps(size), "GB/s");
  }
  const double none_ops_s = Median(bench.row(kNoneRow).rates);
  Registry pooled;
  // Cost ladder: per-call means x calls per op, against client time per
  // traced op (1/ops_s for one client). The share not covered is the
  // benchmark loop and the tracing itself.
  std::printf("cost ladder (traced; ns per op):\n");
  std::printf("  %-14s %9s %9s %9s %9s %9s %9s %7s\n", "row", "read",
              "update", "insert", "commit", "sum", "client", "cover");
  for (int i = 0; i < kRowCount; ++i) {
    RowState& r = bench.row(i);
    const std::string row = kRows[i].name;
    auto per_call = [&](SpanKind k) {
      const uint64_t n = spans.count(i, k);
      return n > 0 ? static_cast<double>(spans.total_ns(i, k)) / n : 0.0;
    };
    const double ops = std::max<double>(1, static_cast<double>(r.traced_ops));
    auto per_op = [&](std::initializer_list<SpanKind> kinds) {
      uint64_t ns = 0;
      for (SpanKind k : kinds) ns += spans.total_ns(i, k);
      return static_cast<double>(ns) / ops;
    };
    const double read = per_op({kReadFieldSpan});
    const double update = per_op({kUpdateSpan});
    const double insert = per_op({kInsertSpan});
    const double commit = per_op({kBeginSpan, kCommitSpan});
    const double sum = read + update + insert + commit;
    const double client = static_cast<double>(r.traced_ns) / ops;
    const double coverage = client > 0 ? sum / client : 0;
    std::printf("  %-14s %9.0f %9.0f %9.0f %9.0f %9.0f %9.0f %6.1f%%\n",
                row.c_str(), read, update, insert, commit, sum, client,
                100 * coverage);
    out.Add("core.read_field_ns." + row, per_call(kReadFieldSpan), "ns");
    out.Add("core.update_ns." + row, per_call(kUpdateSpan), "ns");
    out.Add("core.insert_ns." + row, per_call(kInsertSpan), "ns");
    out.Add("core.commit_ns_per_op." + row, commit, "ns");  // Begin + Commit.
    out.Add("core.traced_coverage." + row, coverage, "ratio");
    const double measured = static_cast<double>(r.measured_ops);
    auto count_per_op = [&](CounterIndex c) {
      return measured > 0 ? static_cast<double>(r.registry.counters[c]) /
                                measured
                          : 0;
    };
    if (i != kNoneRow) {
      out.Add("protect.slowdown_pct." + row,
              none_ops_s > 0 ? 100 * (1 - Median(r.rates) / none_ops_s) : 0,
              "%");
    }
    if (kRows[i].scheme == ProtectionScheme::kReadPrecheck) {
      out.Add("protect.prechecks_per_op." + row, count_per_op(kPrechecks),
              "count");
    }
    if (i != kNoneRow && kRows[i].scheme != ProtectionScheme::kHardware) {
      out.Add("protect.folds_per_op." + row, count_per_op(kFolds), "count");
    }
    if (kRows[i].scheme == ProtectionScheme::kHardware) {
      out.Add("protect.mprotect_calls_per_op", count_per_op(kMprotectCalls),
              "count");
    }
    out.Add("wal.bytes_per_op." + row, count_per_op(kWalBytes), "B");
    out.Add("wal.appends_per_op." + row, count_per_op(kWalAppends), "count");
    pooled.AddDelta(Registry{}, r.registry);
  }
  auto ratio = [](uint64_t a, uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out.Add("protect.validated_fallback_ratio",
          ratio(pooled.counters[kValidatedFallbacks],
                pooled.counters[kValidatedReads]),
          "ratio");
  out.Add("wal.commits_per_fsync",
          ratio(pooled.counters[kTxnCommits], pooled.counters[kWalFlushes]),
          "count");
  out.Add("wal.flush_p50_us", pooled.Quantile(0, 0.50) * 1e-3, "us");
  out.Add("wal.flush_p99_us", pooled.Quantile(0, 0.99) * 1e-3, "us");
  out.Add("txn.lock_waits_per_txn",
          ratio(pooled.counters[kLockWaits], pooled.counters[kTxnCommits]),
          "count");
  out.Add("txn.retry_ratio", ratio(totals.retries, totals.txns_attempted),
          "ratio");
  out.Add("txn.lock_wait_p99_us", pooled.Quantile(1, 0.99) * 1e-3, "us");

  RowState& cw = bench.row(kDataCwRow);
  out.Add("core.audit_s", Median(cw.audit_s), "s");
  out.Add("ckpt.pages_written", Median(cw.pages_written), "count");
  const double redo = Median(cw.redo_records);
  const double restart = Median(cw.restart_s);
  const double fixed = Median(cw.fixed_s);
  out.Add("recovery.redo_records", redo, "count");
  out.Add("recovery.fixed_s", fixed, "s");
  out.Add("recovery.redo_us_per_record",
          redo > 0 ? (restart - fixed) * 1e6 / redo : 0, "us");
  const double traced_none = Median(bench.row(kNoneRow).traced_rates);
  out.Add("bench.trace_overhead_pct",
          none_ops_s > 0 ? 100 * (1 - traced_none / none_ops_s) : 0, "%");

  if (!trace_out.empty()) {
    if (spans.WriteCsv(trace_out)) {
      std::printf("wrote %zu spans to %s (%llu not kept)\n", spans.kept(),
                  trace_out.c_str(),
                  static_cast<unsigned long long>(spans.dropped()));
    } else {
      std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
    }
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cwdb_perfbench --workload <table2|read_mostly|"
               "durable_commit> --seed N --seconds S --trace 0|1 "
               "--dir DATA_DIR [--trace-out FILE] [--rounds N] [--small]\n"
               "       cwdb_perfbench --selftest --seed N --dir DATA_DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, dir, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  uint64_t fixed_rounds = 0;  // Fixed round count instead of a time budget.
  bool small = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) workload = argv[++i];
    else if (a == "--seed" && has_value) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace" && has_value) trace = std::atoi(argv[++i]);
    else if (a == "--dir" && has_value) dir = argv[++i];
    else if (a == "--trace-out" && has_value) trace_out = argv[++i];
    else if (a == "--rounds" && has_value) fixed_rounds = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--small") small = true;
    else if (a == "--selftest") selftest = true;
    else return Usage();
  }
  if (selftest && !dir.empty()) return SelfTest(dir, seed);
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr || dir.empty() || (trace != 0 && trace != 1) ||
      (seconds <= 0 && fixed_rounds == 0)) {
    return Usage();
  }
  const bool traced = trace == 1;
  if (Status s = MakeDirs(dir); !s.ok()) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 s.ToString().c_str());
    return 1;
  }

  std::printf("run record: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %u, \"kernel_tier\": \"%s\", \"build_type\": "
              "\"%s\", \"data_fs\": \"%s\", \"flush_policy\": \"fdatasync "
              "per group-commit round at every Commit\", \"clients\": %d, "
              "\"shards\": %zu, \"ops_per_txn\": %u, \"read_fraction\": "
              "%.2f, \"trace\": %d}\n",
              spec->name, static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(),
              CodewordKernelTierName(CodewordKernelActiveTier()),
              CWDB_PERFBENCH_BUILD_TYPE, FsName(dir), spec->clients,
              spec->shards, spec->ops_per_txn, spec->read_fraction, trace);
  std::fflush(stdout);

  Bench bench(*spec, seed, small, dir);
  RunTotals& totals = bench.totals();
  SpanLog spans;
  SpanLog* log = traced ? &spans : nullptr;
  bool ok = bench.SetupAll();

  // Measured phase: rounds over all rows, starting at a different row each
  // round. A traced run runs every chunk twice, untraced and traced, and
  // alternates which goes first.
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t phase_start = NowNs();
  uint64_t rounds = 0;
  while (ok) {
    if (fixed_rounds > 0 ? rounds >= fixed_rounds
                         : rounds > 0 && NowNs() - phase_start >= budget_ns) {
      break;
    }
    bool room = true;
    for (int i = 0; i < kRowCount; ++i) {
      room = room && bench.HasRoomFor(i, spec->chunk_ops * (traced ? 2 : 1) +
                                             4 * spec->tail_ops);
    }
    if (!room) break;
    for (int k = 0; k < kRowCount && ok; ++k) {
      const int i = static_cast<int>((rounds + k) % kRowCount);
      const bool traced_first = traced && rounds % 2 == 1;
      if (traced_first) ok = bench.RunChunk(i, spec->chunk_ops, log, true) > 0;
      if (ok) ok = bench.RunChunk(i, spec->chunk_ops, nullptr, true) > 0;
      if (ok && traced && !traced_first) {
        ok = bench.RunChunk(i, spec->chunk_ops, log, true) > 0;
      }
    }
    ++rounds;
  }
  const double phase_s = Seconds(NowNs() - phase_start);

  // Restart epilogue: one cycle per row; a traced run probes it.
  for (int i = 0; i < kRowCount && ok; ++i) {
    ok = bench.RestartCycle(i, traced);
  }
  for (int i = 0; i < kRowCount && ok; ++i) {
    ok = bench.Verify(bench.row(i), "at end");
  }
  for (const auto& e : totals.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  const bool correct = ok && totals.errors.empty() && totals.failed == 0;

  std::printf("measured %llu rounds in %.2f s; %llu ops attempted, %llu "
              "failed, %llu deadlock retries\n",
              static_cast<unsigned long long>(rounds), phase_s,
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.retries));

  const MetricOut out =
      traced ? PerLayerMetrics(bench, spans, trace_out)
             : EndToEndMetrics(bench, ok);
  out.PrintTable(traced ? "per-layer metrics:" : "end-to-end metrics:");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  totals.attempted, 1)),
              static_cast<unsigned long long>(totals.failed),
              out.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cwdb::perfbench

int main(int argc, char** argv) { return cwdb::perfbench::Main(argc, argv); }
