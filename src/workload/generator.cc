#include "workload/generator.h"

#include <cassert>

namespace dvp::workload {

WorkloadDriver::WorkloadDriver(world::SimWorld* world,
                               const std::vector<ItemId>& items,
                               WorkloadOptions options)
    : world_(world),
      items_(items),
      options_(options),
      rng_(options.seed),
      item_zipf_(items.empty() ? 1 : items.size(), options.item_zipf_theta),
      site_zipf_(world->num_sites(), options.site_zipf_theta),
      increment_site_zipf_(world->num_sites(),
                           options.increment_site_zipf_theta >= 0
                               ? options.increment_site_zipf_theta
                               : options.site_zipf_theta) {
  assert(!items.empty());
}

SiteId WorkloadDriver::PickSite(Rng& rng, const txn::TxnSpec& spec) {
  bool is_increment =
      !spec.ops.empty() && spec.ops.front().kind == txn::TxnOp::Kind::kIncrement;
  ZipfGenerator& zipf = is_increment ? increment_site_zipf_ : site_zipf_;
  return SiteId(static_cast<uint32_t>(zipf.Next(rng)));
}

txn::TxnSpec WorkloadDriver::MakeSpec(Rng& rng) {
  txn::TxnSpec spec;
  ItemId item = items_[item_zipf_.Next(rng)];
  double multi =
      items_.size() >= 2 ? options_.p_transfer + options_.p_order : 0.0;
  double total = options_.p_decrement + options_.p_increment +
                 options_.p_read + options_.p_snapshot + multi;
  double r = rng.NextDouble() * total;
  core::Value amount = rng.NextInt(options_.amount_min, options_.amount_max);
  // Snapshot slots in after the full read; at p_snapshot = 0 every threshold
  // below is numerically unchanged, so pre-existing seeds keep their stream.
  double single = options_.p_decrement + options_.p_increment +
                  options_.p_read + options_.p_snapshot;
  if (r < options_.p_decrement) {
    spec.ops = {txn::TxnOp::Decrement(item, amount)};
    spec.label = "decrement";
  } else if (r < options_.p_decrement + options_.p_increment) {
    spec.ops = {txn::TxnOp::Increment(item, amount)};
    spec.label = "increment";
  } else if (r <
             options_.p_decrement + options_.p_increment + options_.p_read) {
    spec.ops = {txn::TxnOp::ReadFull(item)};
    spec.label = "read";
  } else if (r < single) {
    spec.ops = {txn::TxnOp::ReadSnapshot(item)};
    spec.label = "snapshot";
  } else {
    // Multi-item classes: the second item comes from the same Zipf draw, so
    // hot-item pairs collide exactly as the skew dictates. These extra draws
    // only happen here — a mix with both knobs at 0 never reaches them.
    ItemId other = item;
    while (other == item) other = items_[item_zipf_.Next(rng)];
    spec = r < single + options_.p_transfer ? txn::MakeTransfer(item, other, amount)
                                            : txn::MakeOrder(item, other, amount);
  }
  return spec;
}

void WorkloadDriver::SubmitOne() {
  txn::TxnSpec spec = MakeSpec(rng_);
  SiteId at = PickSite(rng_, spec);
  ++results_.submitted;
  auto submitted = world_->Submit(
      at, spec, [this, at, spec](const txn::TxnResult& r) {
        ++results_.outcomes[r.outcome];
        results_.decision_latency_us.Add(static_cast<double>(r.latency_us));
        results_.gather_rounds.Add(static_cast<double>(r.rounds));
        if (r.committed()) {
          results_.commit_latency_us.Add(static_cast<double>(r.latency_us));
          if (on_commit_) on_commit_(r.id, spec, r);
        } else {
          results_.abort_latency_us.Add(static_cast<double>(r.latency_us));
        }
        if (on_decision_) on_decision_(at, spec, r);
      });
  if (!submitted.ok()) {
    --results_.submitted;
    ++results_.rejected_down;
  }
}

void WorkloadDriver::ScheduleNextArrival(SimTime horizon_end) {
  double mean_gap_us = 1e6 / options_.arrivals_per_sec;
  SimTime gap = static_cast<SimTime>(rng_.NextExponential(mean_gap_us)) + 1;
  SimTime when = world_->Now() + gap;
  if (when >= horizon_end) return;
  world_->kernel().ScheduleAt(when, [this, horizon_end]() {
    SubmitOne();
    ScheduleNextArrival(horizon_end);
  });
}

WorkloadResults WorkloadDriver::Run(SimTime duration_us, SimTime drain_us) {
  results_ = WorkloadResults{};
  SimTime end = world_->Now() + duration_us;
  ScheduleNextArrival(end);
  world_->RunFor(duration_us);
  world_->RunFor(drain_us);
  return results_;
}

}  // namespace dvp::workload
