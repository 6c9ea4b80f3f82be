#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>

namespace rcua::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n && p < 256) p <<= 1;
  return p;
}

}  // namespace

Counter::Counter(std::string name, std::size_t stripes, Agg agg)
    : name_(std::move(name)),
      stripes_(round_up_pow2(stripes == 0 ? 1 : stripes)),
      mask_(stripes_ - 1),
      agg_(agg),
      cells_(new Cell[stripes_]) {}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < stripes_; ++i) {
    const std::uint64_t v =
        cells_[i].value.load(std::memory_order_relaxed);
    folded = agg_ == Agg::kSum ? folded + v : std::max(folded, v);
  }
  return folded;
}

void Counter::reset() noexcept {
  for (std::size_t i = 0; i < stripes_; ++i) {
    cells_[i].value.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t Histogram::percentile_lower_bound(double q) const noexcept {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0;
  // Rank of the q-quantile, 1-based, clamped into [1, total].
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total - 1)) + 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += counts[b];
    if (cum >= rank) return bucket_lower_bound(b);
  }
  return bucket_lower_bound(kBuckets - 1);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Registry::Registry(std::size_t default_stripes)
    : default_stripes_(round_up_pow2(
          default_stripes != 0
              ? default_stripes
              : static_cast<std::size_t>(plat::hardware_threads()))) {}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // immortal
  return *reg;
}

Counter& Registry::counter(std::string_view name, std::size_t stripes,
                           Agg agg) {
  std::lock_guard<plat::Spinlock> guard(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(
                          std::string(name),
                          stripes != 0 ? stripes : default_stripes_, agg))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<plat::Spinlock> guard(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<plat::Spinlock> guard(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return *it->second;
}

std::vector<Registry::Snapshot> Registry::snapshot() const {
  std::vector<Snapshot> out;
  std::lock_guard<plat::Spinlock> guard(mu_);
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    Snapshot s;
    s.name = name;
    s.kind = Snapshot::Kind::kCounter;
    s.value = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    Snapshot s;
    s.name = name;
    s.kind = Snapshot::Kind::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    Snapshot s;
    s.name = name;
    s.kind = Snapshot::Kind::kHistogram;
    s.value = h->count();
    s.sum = h->sum();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket_count(b);
      if (n != 0) s.buckets.emplace_back(b, n);
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const Snapshot& a, const Snapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::reset() {
  std::lock_guard<plat::Spinlock> guard(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

StatLine& StatLine::kv(const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, key, v);
  line_ += buf;
  return *this;
}

StatLine& StatLine::kv(const char* key, const char* v) {
  line_ += ' ';
  line_ += key;
  line_ += '=';
  line_ += v;
  return *this;
}

StatLine& StatLine::kv_fixed(const char* key, double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%.*f", key, precision, v);
  line_ += buf;
  return *this;
}

void StatLine::print() const { std::printf("%s\n", line_.c_str()); }

}  // namespace rcua::obs
