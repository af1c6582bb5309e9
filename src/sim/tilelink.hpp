// Cross-tile message links (the NoC/bus endpoint stub of a tile).
//
// Channel<T> delivers with zero latency on one kernel, which is exactly
// what tiled execution cannot allow: the conservative engine's lookahead
// is the *minimum* cross-tile latency, so every cross-tile message must
// pay the fabric. A TileLink<T> is a bounded point-to-point link between
// two cores whose timing comes from the platform's fabric config — the
// message latency is the fabric's nominal latency for `bytes_per_msg`
// (clamped up to the lookahead floor) and back-to-back sends serialize on
// the link for its occupancy time. Flow control is credit-based: capacity
// counts messages in flight plus buffered at the receiver; send() parks
// when no credit remains and resumes when the receiver's dequeue returns
// one (credits pay the same latency on the way back).
//
// Every piece of link state lives on exactly one tile: credits, the park
// queue of blocked senders and the link-occupancy clock on the sender's
// tile; the delivery buffer and blocked receivers on the receiver's tile.
// Cross-tile hops happen only through TiledEngine mailboxes (or plain
// kernel events when both endpoints share a tile / the platform is
// untiled), so a TileLink is data-race-free under parallel execution and
// its timing is byte-identical across num_tiles and ExecMode choices.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "sim/parallel.hpp"
#include "sim/platform.hpp"

namespace rw::sim {

template <typename T>
class TileLink {
 public:
  TileLink(Platform& plat, CoreId src, CoreId dst, std::size_t capacity,
           std::uint64_t bytes_per_msg, std::string name = "link")
      : name_(std::move(name)),
        src_core_(src),
        dst_core_(dst),
        src_tile_(plat.tile_of_core(src.index())),
        dst_tile_(plat.tile_of_core(dst.index())),
        engine_(plat.engine()),
        src_kernel_(&plat.tile_kernel(src_tile_)),
        dst_kernel_(&plat.tile_kernel(dst_tile_)),
        src_tracer_(&plat.tile_tracer(src_tile_)),
        dst_tracer_(&plat.tile_tracer(dst_tile_)),
        src_label_(src_tracer_->intern(name_)),
        dst_label_(dst_tracer_->intern(name_)),
        credits_(capacity) {
    assert(capacity >= 1);
    const PlatformConfig& cfg = plat.config();
    // Nominal fabric timing, independent of the tile partition: the link
    // models a dedicated point-to-point lane with sender-side
    // serialization, so a workload's timing does not change when its
    // cores are re-binned into tiles.
    latency_ = plat.interconnect().nominal_latency(src, dst, bytes_per_msg);
    switch (cfg.interconnect) {
      case PlatformConfig::Icn::kSharedBus:
        occupancy_ = bus_transfer_duration(cfg.bus, bytes_per_msg);
        break;
      case PlatformConfig::Icn::kMesh:
        occupancy_ = mesh_serialization_time(cfg.mesh, bytes_per_msg);
        break;
    }
    const DurationPs floor = min_cross_tile_latency(cfg);
    if (latency_ < floor) latency_ = floor;
    if (latency_ == 0) latency_ = 1;  // same-node mesh, untiled: keep causal
  }

  TileLink(const TileLink&) = delete;
  TileLink& operator=(const TileLink&) = delete;

  struct SendAwaitable {
    TileLink& ln;
    T value;
    std::coroutine_handle<> handle{};

    bool await_ready() {
      if (ln.credits_ > 0) {
        ln.do_send(std::move(value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ln.send_waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };

  struct RecvAwaitable {
    TileLink& ln;
    std::optional<T> value{};
    std::coroutine_handle<> handle{};

    bool await_ready() {
      if (!ln.buffer_.empty()) {
        value = std::move(ln.buffer_.front());
        ln.buffer_.pop_front();
        ln.return_credit();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ln.recv_waiters_.push_back(this);
    }
    T await_resume() {
      assert(value.has_value());
      return std::move(*value);
    }
  };

  /// co_await link.send(v) — from a process on the sender's tile only.
  [[nodiscard]] SendAwaitable send(T value) {
    return SendAwaitable{*this, std::move(value)};
  }

  /// co_await link.recv() — from a process on the receiver's tile only.
  [[nodiscard]] RecvAwaitable recv() { return RecvAwaitable{*this}; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] DurationPs latency() const { return latency_; }
  [[nodiscard]] DurationPs occupancy() const { return occupancy_; }
  [[nodiscard]] std::size_t credits() const { return credits_; }
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }
  [[nodiscard]] std::uint64_t total_delivered() const {
    return total_delivered_;
  }
  [[nodiscard]] bool cross_tile() const { return src_tile_ != dst_tile_; }

 private:
  friend struct SendAwaitable;
  friend struct RecvAwaitable;

  /// Hop an event onto the peer tile: through the engine's mailbox when
  /// the endpoints live on different tiles, as a plain kernel event
  /// otherwise. Timing is identical either way.
  void post_to(std::uint32_t from, std::uint32_t to, Kernel& k, TimePs t,
               EventFn fn) {
    if (engine_ != nullptr && from != to) {
      engine_->post(from, to, t, std::move(fn));
    } else {
      k.schedule_at(t, std::move(fn));
    }
  }

  /// Sender tile: consume a credit, serialize on the link, launch the
  /// message towards the receiver.
  void do_send(T v) {
    --credits_;
    const TimePs now = src_kernel_->now();
    const TimePs depart = now > link_free_ ? now : link_free_;
    link_free_ = depart + occupancy_;
    const TimePs at = depart + latency_;
    ++total_sent_;
    src_tracer_->record(now, TraceKind::kMsgSend, src_core_, src_label_,
                        total_sent_, at);
    post_to(src_tile_, dst_tile_, *dst_kernel_, at,
            [this, v = std::move(v)]() mutable { arrive(std::move(v)); });
  }

  /// Receiver tile: a message lands. Hand it to a parked receiver (the
  /// buffer slot is never held, so its credit leaves immediately) or
  /// buffer it until recv().
  void arrive(T v) {
    ++total_delivered_;
    dst_tracer_->record(dst_kernel_->now(), TraceKind::kMsgRecv, dst_core_,
                        dst_label_, total_delivered_, 0);
    if (!recv_waiters_.empty()) {
      RecvAwaitable* w = recv_waiters_.front();
      recv_waiters_.pop_front();
      w->value = std::move(v);
      return_credit();
      w->handle.resume();  // already inside a dst-tile kernel event
    } else {
      buffer_.push_back(std::move(v));
    }
  }

  /// Receiver tile: a slot freed; send the credit home.
  void return_credit() {
    post_to(dst_tile_, src_tile_, *src_kernel_,
            dst_kernel_->now() + latency_, [this] { credit_arrive(); });
  }

  /// Sender tile: a credit returned; unpark the oldest blocked sender.
  void credit_arrive() {
    ++credits_;
    if (!send_waiters_.empty()) {
      SendAwaitable* w = send_waiters_.front();
      send_waiters_.pop_front();
      do_send(std::move(w->value));
      w->handle.resume();  // already inside a src-tile kernel event
    }
  }

  std::string name_;
  CoreId src_core_;
  CoreId dst_core_;
  std::uint32_t src_tile_;
  std::uint32_t dst_tile_;
  TiledEngine* engine_;  // nullptr on untiled platforms
  Kernel* src_kernel_;
  Kernel* dst_kernel_;
  Tracer* src_tracer_;
  Tracer* dst_tracer_;
  LabelId src_label_;  // name_ in each endpoint's tracer table
  LabelId dst_label_;

  DurationPs latency_ = 1;
  DurationPs occupancy_ = 0;

  // Sender-tile state.
  std::size_t credits_;
  TimePs link_free_ = 0;
  std::deque<SendAwaitable*> send_waiters_;
  std::uint64_t total_sent_ = 0;

  // Receiver-tile state.
  std::deque<T> buffer_;
  std::deque<RecvAwaitable*> recv_waiters_;
  std::uint64_t total_delivered_ = 0;
};

}  // namespace rw::sim
