// Harness implementation and entry point of the wall-clock service
// benchmark. Usage (normally through run.py, which builds this binary):
//
//   service_bench --workload kv-zipf|elastic-grow|migrate-rmw --seed N
//                 --seconds S --trace 0|1 [--drop-one-write]
//
// Prints one "name value unit" line per metric, then one JSON line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string_view>

#include "baselines/unsafe_array.hpp"
#include "obs/metrics.hpp"
#include "reclaim/ebr.hpp"
#include "sim/task_clock.hpp"
#include "util/stats.hpp"

namespace perfbench {

double LatencyHistogram::midpoint(std::size_t b) noexcept {
  if (b < kLinear) return static_cast<double>(b);
  const std::size_t k = b - kLinear;
  const int e = static_cast<int>(k >> kSubBits) + kLinearBits;
  const std::uint64_t sub = k & ((std::size_t{1} << kSubBits) - 1);
  const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
  const std::uint64_t lo = ((std::uint64_t{1} << kSubBits) + sub) * width;
  return static_cast<double>(lo) + static_cast<double>(width) / 2.0;
}

double LatencyHistogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) return midpoint(b);
  }
  return midpoint(kBuckets - 1);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

void Report::print() const {
  for (const std::string& n : notes_) std::cout << "# " << n << "\n";
  for (const auto& [name, m] : metrics_) {
    std::cout << "metric " << name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "ops attempted " << attempted_ << " failed " << failed_
            << "\n";
  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    std::cout << (first ? "" : ", ") << "\"" << name
              << "\": {\"value\": " << json_number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

std::vector<std::uint64_t> ladder_sample(
    const std::vector<std::vector<std::uint64_t>>& streams) {
  std::vector<std::uint64_t> idx(kRungSample);
  for (std::size_t j = 0; j < kRungSample; ++j) {
    idx[j] = streams[0][j] & kIndexMask;
  }
  return idx;
}

std::size_t drain_qsbr_backlog() {
  auto& qsbr = rcua::reclaim::Qsbr::global();
  const std::size_t pending = qsbr.pending_total();
  qsbr.flush_unsafe();
  return pending;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return rcua::util::quantile_sorted(v, 0.5);
}

void PhaseStats::add_pass(const std::vector<ClientStats>& clients,
                          double seconds, const MutatorStats* mutator) {
  const double slice_s = seconds / static_cast<double>(kSlices);
  seconds_ += seconds;
  for (std::size_t s = 0; s < kSlices; ++s) {
    LatencyHistogram read;
    LatencyHistogram write;
    std::uint64_t ops = 0;
    for (const ClientStats& c : clients) {
      read.merge(c.read[s]);
      write.merge(c.write[s]);
      ops += c.ops[s];
    }
    ops_per_s_.push_back(static_cast<double>(ops) / slice_s);
    read_p50_.push_back(read.percentile(0.50));
    read_p99_.push_back(read.percentile(0.99));
    write_p50_.push_back(write.percentile(0.50));
    write_p99_.push_back(write.percentile(0.99));
    read_all_.merge(read);
    write_all_.merge(write);
  }
  for (const ClientStats& c : clients) in_change_.merge(c.write_in_change);
  if (mutator != nullptr) {
    has_mutator_ = true;
    mutator_.merge(*mutator);
  }
}

namespace {
rcua::obs::Histogram& grace_histogram() {
  return rcua::obs::Registry::global().histogram("rcua.rcu.grace_ns");
}
}  // namespace

void PhaseStats::grace_begin() {
  for (std::size_t b = 0; b < grace_before_.size(); ++b) {
    grace_before_[b] = grace_histogram().bucket_count(b);
  }
}

void PhaseStats::grace_end() {
  for (std::size_t b = 0; b < grace_.size(); ++b) {
    grace_[b] += grace_histogram().bucket_count(b) - grace_before_[b];
  }
}

double PhaseStats::grace_percentile(double q) const {
  std::uint64_t total = 0;
  for (std::uint64_t c : grace_) total += c;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
                        q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < grace_.size(); ++b) {
    seen += grace_[b];
    if (seen >= rank) {
      return static_cast<double>(
          rcua::obs::Histogram::bucket_lower_bound(b));
    }
  }
  return 0.0;
}

void PhaseStats::report(const std::string& suffix, Report& report) const {
  report.metric("bench.setup_s" + suffix, setup_median(), "s");
  report.metric("ops_per_s" + suffix, median(ops_per_s_), "ops/s");
  report.metric("read_p50_ns" + suffix, median(read_p50_), "ns");
  report.metric("read_p99_ns" + suffix, median(read_p99_), "ns");
  report.metric("write_p50_ns" + suffix, median(write_p50_), "ns");
  report.metric("write_p99_ns" + suffix, median(write_p99_), "ns");
  report.metric("bench.read_p999_ns" + suffix, read_all_.percentile(0.999),
                "ns");
  report.metric("bench.write_p999_ns" + suffix, write_all_.percentile(0.999),
                "ns");
  report.metric("bench.read_samples" + suffix,
                static_cast<double>(read_all_.count()), "count");
  report.metric("bench.write_samples" + suffix,
                static_cast<double>(write_all_.count()), "count");
  auto series = [&](const char* name, const std::vector<double>& v) {
    std::string line = std::string(name) + " by slice" + suffix + ":";
    for (double x : v) line += " " + std::to_string(static_cast<long>(x));
    report.note(line);
  };
  series("ops_per_s", ops_per_s_);
  series("read_p50_ns", read_p50_);
  series("read_p99_ns", read_p99_);
  series("write_p50_ns", write_p50_);
  series("write_p99_ns", write_p99_);
  if (!has_mutator_) return;
  report.metric("change_p50_us" + suffix,
                mutator_.latency.percentile(0.50) * 1e-3, "us");
  report.metric("write_p99_in_change_ns" + suffix,
                in_change_.percentile(0.99), "ns");
  report.metric("bench.changes" + suffix,
                static_cast<double>(mutator_.measured), "count");
  report.metric("bench.write_in_change_samples" + suffix,
                static_cast<double>(in_change_.count()), "count");
  report.metric("bench.mutator_late_us_max" + suffix,
                static_cast<double>(mutator_.late_max_ns) * 1e-3, "us");
  report.metric("bench.mutator_busy_pct" + suffix,
                100.0 * static_cast<double>(mutator_.busy_ns) * 1e-9 /
                    seconds_,
                "%");
}

void common_rungs(rcua::rt::Cluster& cluster,
                  const std::vector<std::uint64_t>& indices,
                  std::size_t capacity, Report& report) {
  on_locale0(cluster, [&] {
    const std::size_t n = indices.size();
    report.metric("bench.clock_ns", rung_ns("bench.clock", n, [](std::size_t) {
                    keep(rcua::plat::now_ns());
                  }),
                  "ns");
    // No TaskClock is attached on a pool task outside a simulated
    // region, so this is the hook's cost on the untimed hot path.
    report.metric("sim.charge_ns", rung_ns("sim.charge", n, [](std::size_t) {
                    rcua::sim::charge(1.0);
                  }),
                  "ns");
    auto& qsbr = rcua::reclaim::Qsbr::global();
    report.metric("reclaim.section_ns.qsbr",
                  rung_ns("reclaim.qsbr.ensure_participant", n,
                          [&](std::size_t) { qsbr.ensure_participant(); }),
                  "ns");
    rcua::reclaim::Ebr ebr;
    report.metric("reclaim.section_ns.ebr",
                  rung_ns("reclaim.ebr.read", n,
                          [&](std::size_t) { ebr.read([] {}); }),
                  "ns");
    report.metric("reclaim.checkpoint_ns",
                  rung_ns("reclaim.qsbr.checkpoint", n,
                          [&](std::size_t) { keep(qsbr.checkpoint()); }),
                  "ns");
    report.metric("rt.coforall_us",
                  rung_us("rt.coforall_locales", 101, [&](int) {
                    cluster.coforall_locales([](std::uint32_t) {});
                  }),
                  "us");
    rcua::baseline::UnsafeArray<std::uint64_t> floor(cluster, capacity);
    report.metric("baseline.index_ns",
                  rung_ns("baseline.index", n,
                          [&](std::size_t j) {
                            keep(static_cast<std::uint64_t>(
                                floor.index(indices[j])));
                          }),
                  "ns");
  });
}

void finish_run(const Args& args, double setup_qsbr, double setup_ebr,
                const Traffic& traffic,
                const std::vector<std::uint64_t>& indices,
                std::size_t capacity, Report& report) {
  report.metric("setup_s", setup_qsbr + setup_ebr, "s");
  if (!args.trace) return;
  traffic.report(report);
  // A fresh cluster, after both phases freed their structures.
  rcua::rt::Cluster cluster(
      rcua::rt::ClusterConfig{kLocales, kWorkersPerLocale});
  common_rungs(cluster, indices, capacity, report);
  for (const char* p : {".qsbr", ".ebr"}) {
    report.metric(std::string("core.self_ns") + p,
                  report.value(std::string("core.index_ns") + p) -
                      report.value("baseline.index_ns"),
                  "ns");
  }
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "service_bench: %s\nusage: service_bench --workload "
               "kv-zipf|elastic-grow|migrate-rmw --seed N --seconds S "
               "--trace 0|1 [--drop-one-write]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = val();
      } else if (k == "--seed") {
        a.seed = std::stoull(val());
      } else if (k == "--seconds") {
        a.seconds = std::stod(val());
      } else if (k == "--trace") {
        a.trace = std::stoi(val()) != 0;
      } else if (k == "--drop-one-write") {
        a.drop_one_write = true;
      } else {
        usage("unknown argument");
      }
    } catch (const std::logic_error&) {
      usage("malformed number");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 3600.0) usage("--seconds out of range");
  return a;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  // One malloc arena: blocks are allocated on whichever pool thread runs
  // a resize, and per-thread arenas would make the reuse of freed set-up
  // memory, and so peak_rss_mib, depend on thread scheduling.
  mallopt(M_ARENA_MAX, 1);
  // RCUA_TRACE switches recording on at start-up; only the traced pass
  // and the ladder's spans may record.
  rcua::obs::set_trace_enabled(false);
  perfbench::Report report;
  if (args.workload == "kv-zipf") {
    perfbench::run_kv_zipf(args, report);
  } else if (args.workload == "elastic-grow") {
    perfbench::run_elastic_grow(args, report);
  } else if (args.workload == "migrate-rmw") {
    perfbench::run_migrate_rmw(args, report);
  } else {
    perfbench::usage("unknown workload");
  }
  report.metric("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
  report.print();
  return 0;
}
