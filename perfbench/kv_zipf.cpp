// kv-zipf: cont::DistHashMap<uint64_t, uint64_t, P, svc::ShardedCollection>
// with one shard per locale, preloaded with 1 Mi keys. Three clients run
// a closed loop of 95% find / 5% update of existing keys, keys drawn from
// Zipf theta = 0.99. Read-mostly skewed service traffic whose hot set
// stays in cache: the per-op CPU path through cont -> svc -> core ->
// reclaim sets the numbers, and no resize or migration runs.

#include <memory>

#include "bench.hpp"
#include "containers/dist_hash_map.hpp"
#include "platform/rng.hpp"
#include "service/sharded_collection.hpp"
#include "util/workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKeys = std::size_t{1} << 20;
/// Two buckets per key: the table is half full, so most finds touch one
/// slot and the rest walk a short chain.
constexpr std::size_t kBuckets = std::size_t{2} << 20;
constexpr std::size_t kBlock = 1024;
constexpr std::uint32_t kClients = kBusyTasks;
constexpr double kTheta = 0.99;
constexpr double kUpdateShare = 0.05;
constexpr std::size_t kStreamOps = std::size_t{1} << 20;

/// Values encode their key: (version << 32) | key, version 0 = preload.
constexpr std::uint64_t value_of(std::uint64_t key, std::uint64_t version) {
  return (version << 32) | key;
}

/// Inputs generated from the seed: the key of each Zipf rank (a seeded
/// permutation, so hot keys scatter over buckets and shards) and one op
/// stream per client. Rank r is owned by client r % kClients, the only
/// client that updates it, so each owner knows its keys' final values.
struct Inputs {
  std::vector<std::uint64_t> key_of_rank;
  std::vector<std::vector<std::uint64_t>> streams;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.key_of_rank.resize(kKeys);
  for (std::size_t r = 0; r < kKeys; ++r) in.key_of_rank[r] = r + 1;
  rcua::plat::Xoshiro256 perm(rcua::plat::mix64(seed));
  for (std::size_t r = kKeys - 1; r > 0; --r) {
    std::swap(in.key_of_rank[r], in.key_of_rank[perm.next_below(r + 1)]);
  }
  const double zetan = rcua::util::ZipfGenerator::compute_zetan(kKeys, kTheta);
  in.streams.resize(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    const std::uint64_t s = rcua::plat::mix64(seed * 31 + c + 1);
    rcua::util::ZipfGenerator zipf(kKeys, kTheta, s, zetan);
    rcua::plat::Xoshiro256 mix(s + 1);
    auto& out = in.streams[c];
    out.reserve(kStreamOps);
    for (std::size_t k = 0; k < kStreamOps; ++k) {
      std::uint64_t r = zipf.next();
      if (mix.next_double() < kUpdateShare) {
        // The owned rank nearest the drawn one keeps updates skewed too.
        r = r - r % kClients + c;
        if (r >= kKeys) r -= kClients;
        out.push_back(r | kWriteBit);
      } else {
        out.push_back(r);
      }
    }
  }
  return in;
}

template <typename P>
class Phase {
 public:
  using Map = rcua::cont::DistHashMap<std::uint64_t, std::uint64_t, P,
                                      rcua::svc::ShardedCollection>;

  Phase(const Args& args, const Inputs& in, Report& report, Traffic& traffic)
      : args_(args), in_(in), report_(report), traffic_(traffic) {}

  /// The slot a find of `key` touches first: the bucket head
  /// (DistHashMap hashes with plat::mix64 modulo the bucket count).
  static std::uint64_t head_slot(std::uint64_t key) {
    return rcua::plat::mix64(key) % kBuckets;
  }
  /// The ladder's key sample: the keys of ladder_sample's ranks.
  static std::vector<std::uint64_t> sample_keys(const Inputs& in) {
    std::vector<std::uint64_t> keys = ladder_sample(in.streams);
    for (std::uint64_t& k : keys) k = in.key_of_rank[k];
    return keys;
  }

  std::size_t slab_capacity() const { return slab_capacity_; }
  [[nodiscard]] double setup_median() const { return stats_.setup_median(); }

  void setup() {
    const std::uint64_t t0 = rcua::plat::now_ns();
    cluster_ = std::make_unique<rcua::rt::Cluster>(
        rcua::rt::ClusterConfig{kLocales, kWorkersPerLocale});
    typename Map::Options opts;
    opts.num_buckets = kBuckets;
    opts.block_size = kBlock;
    map_ = std::make_unique<Map>(*cluster_, opts);
    // Preload from every locale in parallel (inserts are parallel-safe).
    cluster_->coforall_locales([&](std::uint32_t l) {
      for (std::size_t k = l; k < kKeys; k += kLocales) {
        const std::uint64_t key = in_.key_of_rank[k];
        map_->insert(key, value_of(key, 0));
      }
    });
    stats_.add_setup(static_cast<double>(rcua::plat::now_ns() - t0) * 1e-9);
    slab_capacity_ = map_->slab_capacity();
    versions_.assign(kClients,
                     std::vector<std::uint64_t>(kKeys / kClients + 1, 0));
  }

  void teardown() {
    map_.reset();
    cluster_.reset();
    const std::size_t backlog = drain_qsbr_backlog();
    if constexpr (P::is_qsbr) {
      qsbr_pending_peak_ = std::max(qsbr_pending_peak_, backlog);
    }
  }

  double pass(double seconds, bool record, int round) {
    Map& map = *map_;
    auto& slab = map.backing();
    std::vector<ClientStats> clients(kClients);
    StartGate gate(kBusyTasks, seconds);
    const Traffic before = Traffic::mark(*cluster_);
    const std::uint64_t routed0 = slab.routed();
    const std::uint64_t remote0 = slab.routed_remote();
    const std::uint64_t advances0 = epoch_advances_of_shards(slab);
    const bool drop =
        args_.drop_one_write && P::is_qsbr && record && round == 0;

    run_busy_tasks(*cluster_, [&](std::uint32_t c) {
      const Window w = gate.arrive();
      ClientStats& st = clients[c];
      closed_loop(
          in_.streams[c], w, P::is_qsbr, st,
          [&](std::uint64_t o) {
            const std::uint64_t r = o & kIndexMask;
            const std::uint64_t key = in_.key_of_rank[r];
            if ((o & kWriteBit) != 0) {
              // insert() returns true only for a new key: the key was lost.
              std::uint64_t& version = versions_[c][r / kClients];
              return !map.insert(key, value_of(key, ++version));
            }
            const std::optional<std::uint64_t> v = map.find(key);
            return v.has_value() && (*v & 0xFFFFFFFFu) == key;
          },
          [](std::uint64_t) -> const ChangeSeq* { return nullptr; });
      if (drop && c == 0) {
        ++versions_[0][0];  // detector self-check: an update never sent
        ++st.attempted;
      }
      // Every owned key must hold exactly its owner's last update.
      for (std::size_t r = c; r < kKeys; r += kClients) {
        const std::uint64_t key = in_.key_of_rank[r];
        const std::optional<std::uint64_t> v = map.find(key);
        if (!v.has_value() || *v != value_of(key, versions_[c][r / kClients])) {
          ++st.failed;
        }
      }
    });

    std::uint64_t ops = 0;
    for (const ClientStats& c : clients) {
      report_.ops(c.attempted, c.failed);
      ops += c.measured;
    }
    if (record) {
      stats_.add_pass(clients, seconds, nullptr);
      traffic_.add_since(before, *cluster_, ops, 0);
      routed_ += slab.routed() - routed0;
      routed_remote_ += slab.routed_remote() - remote0;
      advances_ += epoch_advances_of_shards(slab) - advances0;
      // No structural change runs here, so the reclamation backlog is
      // sampled at the end of each pass.
      pending_peak_ = std::max(pending_peak_, pending_bytes_of_shards(slab));
    }
    return static_cast<double>(ops) / seconds;
  }

  void finish() {
    stats_.report(sfx<P>(""), report_);
    report_.metric(sfx<P>("svc.routed_remote_ratio"),
                   static_cast<double>(routed_remote_) /
                       static_cast<double>(std::max<std::uint64_t>(routed_, 1)),
                   "ratio");
    report_.metric(sfx<P>("core.pending_bytes_peak"),
                   static_cast<double>(pending_peak_), "B");
    if constexpr (P::is_qsbr) {
      report_.metric("reclaim.qsbr_pending_peak",
                     static_cast<double>(qsbr_pending_peak_), "count");
    } else {
      report_.metric("reclaim.epoch_advances.ebr",
                     static_cast<double>(advances_), "count");
    }
  }

  /// Per-layer rungs on the live map: cont (find, update-insert), svc
  /// (the slab's routed index of the bucket head) and core (the owning
  /// shard's index of the same slot). Slots are not copyable, so the
  /// map's path through svc and core is index(), not read()/write().
  void ladder() {
    Map& map = *map_;
    auto& slab = map.backing();
    const std::vector<std::uint64_t> keys = sample_keys(in_);
    const std::size_t n = keys.size();
    on_locale0(*cluster_, [&] {
      std::vector<std::uint64_t> vals(n);
      std::vector<std::uint64_t> slot(n);
      std::vector<std::size_t> shard(n);
      std::vector<std::uint64_t> local(n);
      const std::size_t shards = slab.shard_count();
      for (std::size_t j = 0; j < n; ++j) {
        vals[j] = map.find(keys[j]).value_or(0);
        slot[j] = head_slot(keys[j]);
        // Block-cyclic routing: global block g lives in shard
        // g % shards at local block g / shards.
        const std::uint64_t g = slot[j] / kBlock;
        shard[j] = g % shards;
        local[j] = (g / shards) * kBlock + slot[j] % kBlock;
      }
      report_.metric(
          sfx<P>("cont.find_ns"),
          rung_ns("cont.find", n,
                  [&](std::size_t j) { keep(map.find(keys[j]).value_or(0)); }),
          "ns");
      report_.metric(sfx<P>("cont.insert_ns"),
                     rung_ns("cont.insert", n,
                             [&](std::size_t j) {
                               keep(map.insert(keys[j], vals[j]));
                             }),
                     "ns");
      report_.metric(sfx<P>("svc.index_ns"),
                     rung_ns("svc.index", n,
                             [&](std::size_t j) {
                               keep(slab.index(slot[j]).state.load(
                                   std::memory_order_relaxed));
                             }),
                     "ns");
      report_.metric(sfx<P>("core.index_ns"),
                     rung_ns("core.index", n,
                             [&](std::size_t j) {
                               keep(slab.shard(shard[j])
                                        .index(local[j])
                                        .state.load(std::memory_order_relaxed));
                             }),
                     "ns");
    });
    report_.metric(sfx<P>("svc.route_self_ns"),
                   report_.value(sfx<P>("svc.index_ns")) -
                       report_.value(sfx<P>("core.index_ns")),
                   "ns");
    report_.metric(sfx<P>("cont.self_ns"),
                   report_.value(sfx<P>("cont.find_ns")) -
                       report_.value(sfx<P>("svc.index_ns")),
                   "ns");
  }

 private:
  const Args& args_;
  const Inputs& in_;
  Report& report_;
  Traffic& traffic_;
  PhaseStats stats_;
  std::unique_ptr<rcua::rt::Cluster> cluster_;
  std::unique_ptr<Map> map_;
  std::size_t slab_capacity_ = 0;
  /// versions_[c][r / kClients]: the last update version of rank r, owned
  /// and written only by client c = r % kClients (one vector per client,
  /// so clients never share its cache lines).
  std::vector<std::vector<std::uint64_t>> versions_;
  std::uint64_t routed_ = 0;
  std::uint64_t routed_remote_ = 0;
  std::uint64_t advances_ = 0;
  std::size_t pending_peak_ = 0;
  std::size_t qsbr_pending_peak_ = 0;
};

}  // namespace

void run_kv_zipf(const Args& args, Report& report) {
  const Inputs in = make_inputs(args.seed);
  Traffic traffic;
  Phase<rcua::QsbrPolicy> qsbr(args, in, report, traffic);
  Phase<rcua::EbrPolicy> ebr(args, in, report, traffic);
  run_phases(args, qsbr, ebr, report);
  std::vector<std::uint64_t> slots = Phase<rcua::QsbrPolicy>::sample_keys(in);
  for (std::uint64_t& s : slots) s = Phase<rcua::QsbrPolicy>::head_slot(s);
  finish_run(args, qsbr.setup_median(), ebr.setup_median(), traffic, slots,
             qsbr.slab_capacity(), report);
}

}  // namespace perfbench
