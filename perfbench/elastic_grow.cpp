// elastic-grow: RCUArray<uint64_t, P> used directly, its base several
// times the last-level cache. Two clients run a closed loop of uniform
// 80% read / 20% write over the base while a grower appends one block on
// a fixed schedule (resize_add + bulk_write of the new block) and, at a
// cap, trims back to the base with resize_remove. It tests the paper's
// claim that updates proceed during a resize and exercises the writer
// side: spine clone and per-locale publish, the coforall fan-out, EBR
// grace periods against QSBR deferral, and the bulk_write aggregator.
// Reads are DRAM-bound and bypass svc and cont.

#include <memory>
#include <span>
#include <unordered_map>

#include "bench.hpp"
#include "core/rcu_array.hpp"
#include "platform/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBlock = 1024;
/// 64 Mi elements = 512 MiB, about 5x the reference host's 105 MiB L3.
constexpr std::size_t kBase = std::size_t{64} << 20;
constexpr std::uint32_t kClients = 2;
constexpr double kWriteShare = 0.20;
/// Ops per client stream (cycled). Its footprint, 8 Mi random elements
/// over both clients, is far beyond the L3, so cycling stays DRAM-bound.
constexpr std::size_t kStreamOps = std::size_t{4} << 20;
/// One append every 2 ms; after kCapBlocks appends the next change trims.
constexpr std::uint64_t kPeriodNs = 2'000'000;
constexpr std::size_t kCapBlocks = 32;
/// Each client re-reads its last kRing writes when its loop ends.
constexpr std::size_t kRing = 4096;

/// Every value carries its index: (index << 24) | tag, tag 0 = preload,
/// 1 = grower, client writes count up from 1 per client.
constexpr std::uint64_t value_of(std::uint64_t i, std::uint64_t tag) {
  return (i << 24) | (tag & 0xFFFFFF);
}

using Stream = std::vector<std::uint64_t>;

std::vector<Stream> make_streams(std::uint64_t seed) {
  std::vector<Stream> out(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    rcua::plat::Xoshiro256 rng(rcua::plat::mix64(seed * 31 + c + 1));
    Stream& s = out[c];
    s.reserve(kStreamOps);
    for (std::size_t k = 0; k < kStreamOps; ++k) {
      if (rng.next_double() < kWriteShare) {
        // Writes go to indices this client owns (i % kClients == c), so
        // its own last write to an index is the index's final value.
        s.push_back((rng.next_below(kBase / kClients) * kClients + c) |
                    kWriteBit);
      } else {
        s.push_back(rng.next_below(kBase));
      }
    }
  }
  return out;
}

template <typename P>
class Phase {
 public:
  using Array = rcua::RCUArray<std::uint64_t, P>;

  Phase(const Args& args, const std::vector<Stream>& streams, Report& report,
        Traffic& traffic)
      : args_(args), streams_(streams), report_(report), traffic_(traffic) {}

  void setup() {
    const std::uint64_t t0 = rcua::plat::now_ns();
    cluster_ = std::make_unique<rcua::rt::Cluster>(
        rcua::rt::ClusterConfig{kLocales, kWorkersPerLocale});
    typename Array::Options opts;
    opts.block_size = kBlock;
    opts.cache_capacity_bytes = 0;
    arr_ = std::make_unique<Array>(*cluster_, kBase, opts);
    // Preload in parallel, each locale filling the blocks it owns.
    arr_->for_each_block_local(
        [](std::size_t b, rcua::Block<std::uint64_t>& blk) {
          for (std::size_t k = 0; k < blk.capacity(); ++k) {
            blk[k] = value_of(b * kBlock + k, 0);
          }
        });
    stats_.add_setup(static_cast<double>(rcua::plat::now_ns() - t0) * 1e-9);
    extra_ = 0;
  }

  void teardown() {
    arr_.reset();
    cluster_.reset();
    const std::size_t backlog = drain_qsbr_backlog();
    if constexpr (P::is_qsbr) {
      qsbr_pending_peak_ = std::max(qsbr_pending_peak_, backlog);
    }
  }

  [[nodiscard]] double setup_median() const { return stats_.setup_median(); }

  /// One measured pass; returns client ops per second. With `record`, the
  /// pass feeds the reported metrics.
  double pass(double seconds, bool record, int round) {
    Array& arr = *arr_;
    std::vector<ClientStats> clients(kClients);
    MutatorStats mut;
    ChangeSeq seq{0};
    StartGate gate(kBusyTasks, seconds);
    const std::uint64_t advances0 = epoch_advances(arr);
    const Traffic before = Traffic::mark(*cluster_);
    const bool drop =
        args_.drop_one_write && P::is_qsbr && record && round == 0;
    if (record) stats_.grace_begin();

    run_busy_tasks(*cluster_, [&](std::uint32_t t) {
      const Window w = gate.arrive();
      if (t < kClients) {
        ClientStats& st = clients[t];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ring(kRing);
        std::uint64_t writes = 0;
        closed_loop(
            streams_[t], w, P::is_qsbr, st,
            [&](std::uint64_t o) {
              const std::uint64_t i = o & kIndexMask;
              if ((o & kWriteBit) != 0) {
                const std::uint64_t v = value_of(i, ++writes);
                arr.write(i, v);
                ring[writes % kRing] = {i, v};
                return true;
              }
              return (arr.read(i) >> 24) == i;
            },
            [&](std::uint64_t) { return &seq; });
        if (drop && t == 0) {
          // Detector self-check: a write the array never sees.
          ++writes;
          ring[writes % kRing] = {0, value_of(0, writes)};
          ++st.attempted;
        }
        // Re-read this client's last writes: the newest value per index.
        std::unordered_map<std::uint64_t, std::uint64_t> last;
        const std::uint64_t first = writes > kRing ? writes - kRing + 1 : 1;
        for (std::uint64_t k = first; k <= writes; ++k) {
          last[ring[k % kRing].first] = ring[k % kRing].second;
        }
        for (const auto& [i, v] : last) {
          if (arr.read(i) != v) ++st.failed;
        }
        return;
      }
      std::vector<std::uint64_t> block(kBlock);
      open_loop(w, kPeriodNs, P::is_qsbr, mut, [&](std::uint64_t) {
        seq.fetch_add(1, std::memory_order_acq_rel);
        bool ok;
        if (extra_ == kCapBlocks) {
          arr.resize_remove(extra_ * kBlock);
          extra_ = 0;
          ok = arr.capacity() == kBase;
        } else {
          const std::size_t first = kBase + extra_ * kBlock;
          arr.resize_add(kBlock);
          for (std::size_t k = 0; k < kBlock; ++k) {
            block[k] = value_of(first + k, 1);
          }
          arr.bulk_write(first, std::span<const std::uint64_t>(block));
          ++extra_;
          ok = arr.read(first) == block.front() &&
               arr.read(first + kBlock - 1) == block.back();
        }
        seq.fetch_add(1, std::memory_order_acq_rel);
        if (record) {
          pending_peak_ = std::max(pending_peak_, arr.reclaim_pending_bytes());
        }
        return ok;
      });
    });

    std::uint64_t ops = 0;
    for (const ClientStats& c : clients) {
      report_.ops(c.attempted, c.failed);
      ops += c.measured;
    }
    report_.ops(mut.attempted, mut.failed);
    if (record) {
      stats_.grace_end();
      stats_.add_pass(clients, seconds, &mut);
      traffic_.add_since(before, *cluster_, ops, mut.measured);
      advances_ += epoch_advances(arr) - advances0;
    }
    return static_cast<double>(ops) / seconds;
  }

  void finish() {
    stats_.report(sfx<P>(""), report_);
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

  /// Per-layer rungs on the live array (README.md, "Per-layer ladder").
  void ladder() {
    Array& arr = *arr_;
    const std::vector<std::uint64_t> idx = ladder_sample(streams_);
    on_locale0(*cluster_, [&] {
      std::vector<std::uint64_t> vals(idx.size());
      for (std::size_t j = 0; j < idx.size(); ++j) vals[j] = arr.read(idx[j]);
      const std::size_t n = idx.size();
      report_.metric(sfx<P>("core.read_ns"),
                     rung_ns("core.read", n,
                             [&](std::size_t j) { keep(arr.read(idx[j])); }),
                     "ns");
      report_.metric(sfx<P>("core.write_ns"),
                     rung_ns("core.write", n,
                             [&](std::size_t j) {
                               arr.write(idx[j], vals[j]);
                             }),
                     "ns");
      report_.metric(sfx<P>("core.index_ns"),
                     rung_ns("core.index", n,
                             [&](std::size_t j) {
                               keep(static_cast<std::uint64_t>(
                                   arr.index(idx[j])));
                             }),
                     "ns");
      // Structural rungs: kStructReps appends (resize_add, then bulk_write
      // of the new block), then as many one-block trims.
      constexpr int kStructReps = 16;
      std::vector<std::uint64_t> block(kBlock);
      const std::size_t base = arr.capacity();
      report_.metric(sfx<P>("core.resize_add_us"),
                     rung_us("core.resize_add", kStructReps, [&](int) {
                       arr.resize_add(kBlock);
                       if constexpr (P::is_qsbr) {
                         rcua::reclaim::Qsbr::global().checkpoint();
                       }
                     }),
                     "us");
      report_.metric(sfx<P>("core.bulk_write_us"),
                     rung_us("core.bulk_write", kStructReps, [&](int r) {
                       const std::size_t first =
                           base + static_cast<std::size_t>(r) * kBlock;
                       for (std::size_t k = 0; k < kBlock; ++k) {
                         block[k] = value_of(first + k, 1);
                       }
                       arr.bulk_write(first,
                                      std::span<const std::uint64_t>(block));
                     }),
                     "us");
      report_.metric(sfx<P>("core.resize_remove_us"),
                     rung_us("core.resize_remove", kStructReps, [&](int) {
                       arr.resize_remove(kBlock);
                       if constexpr (P::is_qsbr) {
                         rcua::reclaim::Qsbr::global().checkpoint();
                       }
                     }),
                     "us");
    });
  }

 private:
  const Args& args_;
  const std::vector<Stream>& streams_;
  Report& report_;
  Traffic& traffic_;
  PhaseStats stats_;
  std::unique_ptr<rcua::rt::Cluster> cluster_;
  std::unique_ptr<Array> arr_;
  /// Blocks appended beyond the base (the grower's state).
  std::size_t extra_ = 0;
  std::size_t pending_peak_ = 0;
  std::size_t qsbr_pending_peak_ = 0;
  std::uint64_t advances_ = 0;
};

}  // namespace

void run_elastic_grow(const Args& args, Report& report) {
  const std::vector<Stream> streams = make_streams(args.seed);
  Traffic traffic;
  Phase<rcua::QsbrPolicy> qsbr(args, streams, report, traffic);
  Phase<rcua::EbrPolicy> ebr(args, streams, report, traffic);
  run_phases(args, qsbr, ebr, report);
  finish_run(args, qsbr.setup_median(), ebr.setup_median(), traffic,
             ladder_sample(streams), kBase, report);
}

}  // namespace perfbench
