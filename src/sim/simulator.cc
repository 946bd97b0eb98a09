#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace eden::sim {

void Simulator::grow_slab() {
  if (slot_count_ > kSlotMask) {
    throw std::runtime_error(
        "Simulator: more than 2^24 concurrently pending events");
  }
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSize));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t low = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (low == 0) return false;
  const std::uint32_t index = low - 1;
  if (index >= slot_count_) return false;
  Slot& s = slot(index);
  if (!s.cb || s.generation != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  release_slot(index);
  --live_count_;
  ++dead_in_queue_;
  // Tombstone bound: pops drop dead entries as they surface; once the
  // backlog outnumbers live events, one O(n) sweep amortizes to O(1) per
  // cancel and keeps the queue O(pending()).
  if (dead_in_queue_ > 64 && dead_in_queue_ > live_count_) sweep();
  return true;
}

void Simulator::rebuild(std::uint64_t new_last_min) {
  // Let `top` be the highest digit where the new minimum differs from
  // last_min_ (it is lower there). Every queued entry below level `top`,
  // and bucket 0, shares last_min_'s digits from `top` up, so relative to
  // the new minimum they all fall into one bucket: (top, last_min_'s digit).
  // That bucket is empty now (an entry matching last_min_ at digit `top`
  // sits below level `top`). Entries at level `top` and above keep their
  // place: their digit at their level exceeds last_min_'s, hence the new
  // minimum's too. Appending whole buckets keeps FIFO ties intact, because
  // equal times always share a bucket.
  const int top =
      (63 - std::countl_zero(new_last_min ^ last_min_)) / kDigitBits;
  const auto top_digit =
      static_cast<int>((last_min_ >> (top * kDigitBits)) & (kDigits - 1));
  std::vector<Entry>& target = level_buckets_[top * kDigits + top_digit];
  auto collect = [&](const std::vector<Entry>& bucket, std::size_t begin) {
    for (std::size_t i = begin; i < bucket.size(); ++i) {
      if (stale(bucket[i])) {
        --dead_in_queue_;
      } else {
        target.push_back(bucket[i]);
      }
    }
  };
  collect(bucket0_, bucket0_cursor_);
  bucket0_.clear();
  bucket0_cursor_ = 0;
  for (int level = 0; level < top; ++level) {
    std::uint64_t dm = digit_mask_[level];
    while (dm != 0) {
      const int digit = std::countr_zero(dm);
      dm &= dm - 1;
      std::vector<Entry>& bucket = level_buckets_[level * kDigits + digit];
      collect(bucket, 0);
      drain(bucket, level);
    }
    digit_mask_[level] = 0;
    level_mask_ &= ~(1u << level);
  }
  if (!target.empty()) {
    digit_mask_[top] |= 1ull << top_digit;
    level_mask_ |= 1u << top;
  }
  last_min_ = new_last_min;
}

void Simulator::sweep() {
  auto filter = [&](std::vector<Entry>& bucket, std::size_t begin) {
    std::size_t kept = 0;
    for (std::size_t i = begin; i < bucket.size(); ++i) {
      if (!stale(bucket[i])) bucket[kept++] = bucket[i];
    }
    bucket.resize(kept);
  };
  filter(bucket0_, bucket0_cursor_);
  bucket0_cursor_ = 0;
  std::uint32_t lm = level_mask_;
  while (lm != 0) {
    const int level = std::countr_zero(lm);
    lm &= lm - 1;
    std::uint64_t dm = digit_mask_[level];
    while (dm != 0) {
      const int digit = std::countr_zero(dm);
      dm &= dm - 1;
      std::vector<Entry>& bucket = level_buckets_[level * kDigits + digit];
      filter(bucket, 0);
      // An emptied bucket keeps its buffer: a coarse one is usually still
      // receiving the timeouts being armed and cancelled; it is freed when
      // the clock reaches it.
      if (bucket.empty()) digit_mask_[level] &= ~(1ull << digit);
    }
    if (digit_mask_[level] == 0) level_mask_ &= ~(1u << level);
  }
  dead_in_queue_ = 0;
}

bool Simulator::refill_bucket0() {
  if (level_mask_ == 0) return false;
  const int level = std::countr_zero(level_mask_);
  const int digit = std::countr_zero(digit_mask_[level]);
  std::vector<Entry>& bucket = level_buckets_[level * kDigits + digit];
  digit_mask_[level] &= digit_mask_[level] - 1;
  if (digit_mask_[level] == 0) level_mask_ &= ~(1u << level);
  if (bucket.size() == 1) {
    // Singleton buckets dominate sparse schedules; skip the scan and the
    // vector swap dance entirely, and start pulling the slot's cache line
    // while the pop loop comes back around.
    const Entry e = bucket.front();
    drain(bucket, level);
    last_min_ = e.time;
    bucket0_.push_back(e);
    __builtin_prefetch(
        &slot(static_cast<std::uint32_t>(e.seq_slot) & kSlotMask));
    return true;
  }
  if (level == 0) {
    // A level-0 bucket differs from last_min_ only in the low digit, so
    // every entry shares one timestamp: refill is a vector swap, and the
    // drained bucket inherits bucket 0's old capacity for reuse.
    last_min_ = bucket.front().time;
    bucket0_.swap(bucket);
    return true;
  }
  // Pass 1: the minimum (time, then schedule order). Tombstones may define
  // it — harmless: redistribution stays correct and the pop loop discards
  // them; skipping the per-entry slab lookup keeps this a sequential scan.
  const Entry* best = &bucket.front();
  for (const Entry& e : bucket) {
    if (e.time < best->time ||
        (e.time == best->time && e.seq_slot < best->seq_slot)) {
      best = &e;
    }
  }
  last_min_ = best->time;
  // Pass 2: redistribute around the new minimum. Every entry lands
  // strictly below this level (the digit-`level` disagreement with the old
  // last_min_ is resolved by the new one), so the bucket is read in place
  // rather than through a scratch buffer; stable appends preserve FIFO
  // order for equal times. The minimum itself lands in bucket 0.
  for (const Entry& e : bucket) push_entry(e.time, e.seq_slot);
  drain(bucket, level);
  return true;
}

std::size_t Simulator::bucket_capacity() const {
  std::size_t total = bucket0_.capacity();
  for (const auto& bucket : level_buckets_) total += bucket.capacity();
  return total;
}

bool Simulator::pop_one(SimTime limit) {
  for (;;) {
    if (bucket0_cursor_ >= bucket0_.size()) {
      bucket0_.clear();
      bucket0_cursor_ = 0;
      if (!refill_bucket0()) return false;
      continue;
    }
    const Entry e = bucket0_[bucket0_cursor_];
    if (bucket0_cursor_ + 1 < bucket0_.size()) {
      // Equal-time batch: pull the next slot's line while this callback
      // runs.
      __builtin_prefetch(&slot(static_cast<std::uint32_t>(
                                   bucket0_[bucket0_cursor_ + 1].seq_slot) &
                               kSlotMask));
    }
    const std::uint32_t index =
        static_cast<std::uint32_t>(e.seq_slot) & kSlotMask;
    Slot& s = slot(index);
    if (!s.cb || s.generation != static_cast<std::uint32_t>(
                                     e.seq_slot >> kSlotBits)) {  // tombstone
      ++bucket0_cursor_;
      --dead_in_queue_;
      continue;
    }
    if (static_cast<SimTime>(e.time) > limit) return false;
    ++bucket0_cursor_;
    --live_count_;
    now_ = static_cast<SimTime>(e.time);
    ++processed_;
    // Invoke in place (one dispatch, no relocate). The slot reads as empty
    // during the call, and is only freed afterwards, so re-entrant
    // schedules cannot reuse the storage the running callable lives in.
    s.cb.invoke_and_reset();
    release_slot(index);
    return true;
  }
}

void Simulator::schedule_delivery(SimTime t, DeliveryKey key, Callback cb) {
  if (!cb) return;
  if (t < now_) t = now_;
  const std::uint32_t index = allocate_slot();
  Slot& s = slot(index);
  s.generation = static_cast<std::uint32_t>(next_seq_++ & kSeqMask);
  s.cb = std::move(cb);
  ++live_count_;
  delivery_mode_ = true;
  deliveries_.push_back(
      DeliveryEntry{static_cast<std::uint64_t>(t), key.hi, key.lo, index});
  std::push_heap(deliveries_.begin(), deliveries_.end(), DeliveryAfter{});
}

SimTime Simulator::peek_event_time() {
  for (;;) {
    if (bucket0_cursor_ >= bucket0_.size()) {
      bucket0_.clear();
      bucket0_cursor_ = 0;
      if (!refill_bucket0()) return kNoEventTime;
      continue;
    }
    const Entry e = bucket0_[bucket0_cursor_];
    if (stale(e)) {  // tombstone: discard exactly like pop_one would
      ++bucket0_cursor_;
      --dead_in_queue_;
      continue;
    }
    return static_cast<SimTime>(e.time);
  }
}

SimTime Simulator::next_event_time() {
  const SimTime te = peek_event_time();
  if (deliveries_.empty()) return te;
  const auto td = static_cast<SimTime>(deliveries_.front().time);
  return td < te ? td : te;
}

void Simulator::pop_delivery() {
  std::pop_heap(deliveries_.begin(), deliveries_.end(), DeliveryAfter{});
  const DeliveryEntry e = deliveries_.back();
  deliveries_.pop_back();
  Slot& s = slot(e.slot);
  --live_count_;
  now_ = static_cast<SimTime>(e.time);
  ++processed_;
  s.cb.invoke_and_reset();
  release_slot(e.slot);
}

bool Simulator::pop_next(SimTime limit) {
  if (deliveries_.empty()) return pop_one(limit);
  const auto td = static_cast<SimTime>(deliveries_.front().time);
  const SimTime te = peek_event_time();
  if (te < td) return pop_one(limit);  // strictly earlier regular event
  if (td > limit) return false;        // both lanes beyond the limit
  pop_delivery();                      // deliveries win ties (td <= te)
  return true;
}

void Simulator::run_until(SimTime t) {
  // The mode flag is re-checked on every pop: a callback may schedule the
  // run's FIRST delivery mid-loop, and the remainder of this call must then
  // interleave the delivery lane — deferring it to the next run_until call
  // would reorder the delivery past later same-call events (or lose it
  // entirely when this is the only call, as in a windowless run).
  while (!delivery_mode_ && pop_one(t)) {
  }
  if (delivery_mode_) {
    while (pop_next(t)) {
    }
  }
  if (t > now_) now_ = t;
}

void Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
  // Mode re-checked per pop, as in run_until.
  while (!delivery_mode_ && pop_one(kForever)) {
    if (++n > max_events) {
      throw std::runtime_error("Simulator::run_all: event budget exceeded");
    }
  }
  if (delivery_mode_) {
    while (pop_next(kForever)) {
      if (++n > max_events) {
        throw std::runtime_error("Simulator::run_all: event budget exceeded");
      }
    }
  }
}

Periodic::Periodic(Simulator& simulator, SimTime start, SimDuration period,
                   std::function<void()> fn)
    : state_(std::make_shared<State>()) {
  assert(period > 0);
  state_->simulator = &simulator;
  state_->period = period;
  state_->fn = std::move(fn);
  state_->alive = true;
  arm(state_, start < simulator.now() ? simulator.now() : start);
}

Periodic::~Periodic() { stop(); }

void Periodic::stop() {
  if (state_) state_->alive = false;
}

void Periodic::arm(const std::shared_ptr<State>& state, SimTime at) {
  state->simulator->schedule_at(at, [state, at] {
    if (!state->alive) return;
    state->fn();
    if (state->alive) arm(state, at + state->period);
  });
}

}  // namespace eden::sim
