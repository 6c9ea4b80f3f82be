// migrate-rmw: svc::ShardedCollection<uint64_t, P>, 8 shards over 4
// locales, 1 Mi elements. Two clients run a closed loop of 50% uniform
// read and 50% increment (read, then write) of elements the client owns,
// while a migrator moves the next shard to the next locale on a fixed
// schedule. It exercises the value path (with_slot) under a change that
// really frees blocks, with writes landing during the copy, and counts
// the increments that live migration loses at this commit (RCUArray::
// rehome's contract admits that a write landing in a source block after
// the block was copied is lost).

#include <memory>

#include "bench.hpp"
#include "platform/rng.hpp"
#include "service/sharded_collection.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kElems = std::size_t{1} << 20;
constexpr std::size_t kShards = 8;
constexpr std::size_t kBlock = 1024;
constexpr std::uint32_t kClients = 2;
constexpr double kIncrementShare = 0.5;
constexpr std::size_t kStreamOps = std::size_t{1} << 20;
/// One migration every 5 ms.
constexpr std::uint64_t kPeriodNs = 5'000'000;

/// Values carry their index and a count: (index << 24) | count.
constexpr std::uint64_t value_of(std::uint64_t i, std::uint64_t count) {
  return (i << 24) | (count & 0xFFFFFF);
}

using Stream = std::vector<std::uint64_t>;

std::vector<Stream> make_streams(std::uint64_t seed) {
  std::vector<Stream> out(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    rcua::plat::Xoshiro256 rng(rcua::plat::mix64(seed * 31 + c + 1));
    Stream& s = out[c];
    s.reserve(kStreamOps);
    for (std::size_t k = 0; k < kStreamOps; ++k) {
      if (rng.next_double() < kIncrementShare) {
        // Increments go to elements this client owns (i % kClients == c).
        s.push_back((rng.next_below(kElems / kClients) * kClients + c) |
                    kWriteBit);
      } else {
        s.push_back(rng.next_below(kElems));
      }
    }
  }
  return out;
}

constexpr std::size_t shard_of(std::uint64_t i) {
  return (i / kBlock) % kShards;
}

template <typename P>
class Phase {
 public:
  using Coll = rcua::svc::ShardedCollection<std::uint64_t, P>;

  Phase(const Args& args, const std::vector<Stream>& streams, Report& report,
        Traffic& traffic)
      : args_(args), streams_(streams), report_(report), traffic_(traffic) {}

  [[nodiscard]] double setup_median() const { return stats_.setup_median(); }

  void setup() {
    const std::uint64_t t0 = rcua::plat::now_ns();
    cluster_ = std::make_unique<rcua::rt::Cluster>(
        rcua::rt::ClusterConfig{kLocales, kWorkersPerLocale});
    typename Coll::Options opts;
    opts.block_size = kBlock;
    opts.shard_count = kShards;
    opts.cache_capacity_bytes = 0;
    coll_ = std::make_unique<Coll>(*cluster_, kElems, opts);
    Coll& coll = *coll_;
    cluster_->coforall_locales([&](std::uint32_t l) {
      for (std::size_t i = l; i < kElems; i += kLocales) {
        coll.write(i, value_of(i, 0));
      }
    });
    stats_.add_setup(static_cast<double>(rcua::plat::now_ns() - t0) * 1e-9);
    counts_.assign(kClients, std::vector<std::uint32_t>(kElems / kClients, 0));
  }

  void teardown() {
    coll_.reset();
    cluster_.reset();
    const std::size_t backlog = drain_qsbr_backlog();
    if constexpr (P::is_qsbr) {
      qsbr_pending_peak_ = std::max(qsbr_pending_peak_, backlog);
    }
  }

  double pass(double seconds, bool record, int round) {
    Coll& coll = *coll_;
    std::vector<ClientStats> clients(kClients);
    std::vector<std::uint64_t> increments(kClients, 0);
    std::vector<std::uint64_t> lost(kClients, 0);
    MutatorStats mut;
    std::vector<ChangeSeq> seqs(kShards);
    StartGate gate(kBusyTasks, seconds);
    const Traffic before = Traffic::mark(*cluster_);
    const std::uint64_t routed0 = coll.routed();
    const std::uint64_t remote0 = coll.routed_remote();
    const std::uint64_t migrations0 = coll.migrations();
    const std::uint64_t blocks0 = coll.migrated_blocks();
    const std::uint64_t advances0 = epoch_advances_of_shards(coll);
    const bool self_check = args_.drop_one_write;
    const bool drop = self_check && P::is_qsbr && record && round == 0;
    if (record) stats_.grace_begin();

    run_busy_tasks(*cluster_, [&](std::uint32_t t) {
      const Window w = gate.arrive();
      if (t < kClients) {
        ClientStats& st = clients[t];
        std::vector<std::uint32_t>& counts = counts_[t];
        std::uint64_t incs = 0;
        std::uint64_t lost_here = 0;
        closed_loop(
            streams_[t], w, P::is_qsbr, st,
            [&](std::uint64_t o) {
              const std::uint64_t i = o & kIndexMask;
              const std::uint64_t v = coll.read(i);
              if ((v >> 24) != i) return false;
              if (i % kClients != t) return true;
              // An owned element: its count must match this client's
              // shadow, or an earlier increment was lost.
              std::uint32_t& shadow = counts[i / kClients];
              const auto count = static_cast<std::uint32_t>(v & 0xFFFFFF);
              const bool ok = count == shadow;
              if (!ok) {
                ++lost_here;
                shadow = count;
              }
              if ((o & kWriteBit) != 0) {
                ++incs;
                coll.write(i, value_of(i, ++shadow));
              }
              return ok;
            },
            [&](std::uint64_t o) { return &seqs[shard_of(o & kIndexMask)]; });
        if (drop && t == 0) {
          ++counts[0];  // detector self-check: an increment never written
          ++st.attempted;
        }
        // Final pass: every owned element against the shadow.
        for (std::size_t i = t; i < kElems; i += kClients) {
          if (coll.read(i) != value_of(i, counts[i / kClients])) {
            ++st.failed;
            ++lost_here;
          }
        }
        increments[t] = incs;
        lost[t] = lost_here;
        return;
      }
      open_loop(w, kPeriodNs, P::is_qsbr, mut, [&](std::uint64_t k) {
        // The self-check runs without migrations, which lose writes.
        if (self_check) return true;
        const std::size_t s = k % kShards;
        const std::uint32_t dst = (coll.home_of(s) + 1) % kLocales;
        seqs[s].fetch_add(1, std::memory_order_acq_rel);
        const bool ok = coll.migrate(s, dst);
        seqs[s].fetch_add(1, std::memory_order_acq_rel);
        if (record) {
          pending_peak_ =
              std::max(pending_peak_, pending_bytes_of_shards(coll));
        }
        return ok;
      });
    });

    std::uint64_t ops = 0;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      report_.ops(clients[c].attempted, clients[c].failed);
      ops += clients[c].measured;
      if (record) {
        increments_ += increments[c];
        lost_ += lost[c];
      }
    }
    report_.ops(mut.attempted, mut.failed);
    if (record) {
      stats_.grace_end();
      stats_.add_pass(clients, seconds, &mut);
      traffic_.add_since(before, *cluster_, ops, mut.measured);
      routed_ += coll.routed() - routed0;
      routed_remote_ += coll.routed_remote() - remote0;
      migrations_ += coll.migrations() - migrations0;
      migrated_blocks_ += coll.migrated_blocks() - blocks0;
      advances_ += epoch_advances_of_shards(coll) - advances0;
    }
    return static_cast<double>(ops) / seconds;
  }

  void finish() {
    stats_.report(sfx<P>(""), report_);
    report_.metric(sfx<P>("bench.lost_increments"),
                   static_cast<double>(lost_), "count");
    report_.metric(sfx<P>("bench.lost_increment_pct"),
                   100.0 * static_cast<double>(lost_) /
                       static_cast<double>(
                           std::max<std::uint64_t>(increments_, 1)),
                   "%");
    report_.metric(sfx<P>("svc.routed_remote_ratio"),
                   static_cast<double>(routed_remote_) /
                       static_cast<double>(std::max<std::uint64_t>(routed_, 1)),
                   "ratio");
    report_.metric(sfx<P>("svc.migrated_blocks_per_change"),
                   static_cast<double>(migrated_blocks_) /
                       static_cast<double>(
                           std::max<std::uint64_t>(migrations_, 1)),
                   "count/change");
    report_.metric(sfx<P>("core.pending_bytes_peak"),
                   static_cast<double>(pending_peak_), "B");
    if constexpr (P::is_qsbr) {
      report_.metric("reclaim.qsbr_pending_peak",
                     static_cast<double>(qsbr_pending_peak_), "count");
    } else {
      report_.metric("reclaim.grace_ns_p50.ebr", stats_.grace_percentile(0.50),
                     "ns");
      report_.metric("reclaim.grace_ns_p99.ebr", stats_.grace_percentile(0.99),
                     "ns");
      report_.metric("reclaim.epoch_advances.ebr",
                     static_cast<double>(advances_), "count");
    }
  }

  /// Per-layer rungs on the live collection: svc (routed read, write and
  /// index) and core (the owning shard's, at the routed local index),
  /// then migrations replayed as their two halves, shard(s).rehome(dst)
  /// and remap(s, dst), timed separately.
  void ladder() {
    Coll& coll = *coll_;
    const std::vector<std::uint64_t> idx = ladder_sample(streams_);
    const std::size_t n = idx.size();
    on_locale0(*cluster_, [&] {
      std::vector<std::uint64_t> vals(n);
      std::vector<std::uint64_t> local(n);
      for (std::size_t j = 0; j < n; ++j) {
        vals[j] = coll.read(idx[j]);
        // Block-cyclic routing: global block g lives in shard
        // g % kShards at local block g / kShards.
        local[j] = (idx[j] / kBlock / kShards) * kBlock + idx[j] % kBlock;
      }
      auto shard = [&](std::size_t j) -> auto& {
        return coll.shard(shard_of(idx[j]));
      };
      report_.metric(
          sfx<P>("svc.read_ns"),
          rung_ns("svc.read", n,
                  [&](std::size_t j) { keep(coll.read(idx[j])); }),
          "ns");
      report_.metric(
          sfx<P>("svc.write_ns"),
          rung_ns("svc.write", n,
                  [&](std::size_t j) { coll.write(idx[j], vals[j]); }),
          "ns");
      report_.metric(sfx<P>("svc.index_ns"),
                     rung_ns("svc.index", n,
                             [&](std::size_t j) {
                               keep(static_cast<std::uint64_t>(
                                   coll.index(idx[j])));
                             }),
                     "ns");
      report_.metric(
          sfx<P>("core.read_ns"),
          rung_ns("core.read", n,
                  [&](std::size_t j) { keep(shard(j).read(local[j])); }),
          "ns");
      report_.metric(
          sfx<P>("core.write_ns"),
          rung_ns("core.write", n,
                  [&](std::size_t j) { shard(j).write(local[j], vals[j]); }),
          "ns");
      report_.metric(sfx<P>("core.index_ns"),
                     rung_ns("core.index", n,
                             [&](std::size_t j) {
                               keep(static_cast<std::uint64_t>(
                                   shard(j).index(local[j])));
                             }),
                     "ns");
      constexpr int kMigrations = 16;
      std::vector<double> rehome_us;
      std::vector<double> remap_us;
      rcua::obs::set_trace_enabled(true);
      for (int r = 0; r < kMigrations; ++r) {
        const std::size_t s = static_cast<std::size_t>(r) % kShards;
        const std::uint32_t dst = (coll.home_of(s) + 1) % kLocales;
        const auto id = static_cast<std::uint64_t>(r) + 1;
        rehome_us.push_back(span_us("core.rehome", id, [&] {
          coll.shard(s).rehome(dst);
        }));
        remap_us.push_back(span_us("svc.remap", id, [&] {
          coll.remap(s, dst);
        }));
        if constexpr (P::is_qsbr) rcua::reclaim::Qsbr::global().checkpoint();
      }
      rcua::obs::set_trace_enabled(false);
      report_.metric(sfx<P>("core.rehome_us"), median(rehome_us), "us");
      report_.metric(sfx<P>("svc.remap_us"), median(remap_us), "us");
    });
    report_.metric(sfx<P>("svc.route_self_ns"),
                   report_.value(sfx<P>("svc.read_ns")) -
                       report_.value(sfx<P>("core.read_ns")),
                   "ns");
  }

 private:
  const Args& args_;
  const std::vector<Stream>& streams_;
  Report& report_;
  Traffic& traffic_;
  PhaseStats stats_;
  std::unique_ptr<rcua::rt::Cluster> cluster_;
  std::unique_ptr<Coll> coll_;
  /// counts_[c][i / kClients]: element i's count as its owner client
  /// c = i % kClients last wrote it (one vector per client).
  std::vector<std::vector<std::uint32_t>> counts_;
  std::uint64_t increments_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t routed_ = 0;
  std::uint64_t routed_remote_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t migrated_blocks_ = 0;
  std::uint64_t advances_ = 0;
  std::size_t pending_peak_ = 0;
  std::size_t qsbr_pending_peak_ = 0;
};

}  // namespace

void run_migrate_rmw(const Args& args, Report& report) {
  const std::vector<Stream> streams = make_streams(args.seed);
  Traffic traffic;
  Phase<rcua::QsbrPolicy> qsbr(args, streams, report, traffic);
  Phase<rcua::EbrPolicy> ebr(args, streams, report, traffic);
  run_phases(args, qsbr, ebr, report);
  finish_run(args, qsbr.setup_median(), ebr.setup_median(), traffic,
             ladder_sample(streams), kElems, report);
}

}  // namespace perfbench
