// The batch engine's firing context (core/batch_engine.hpp).
//
// The batch engine runs the processes' own actions: every algorithm
// (AkProcess, BkProcess, ChangRobertsProcess, LeLannProcess and
// PetersonProcess) writes fire() once, as a member template over the
// context type, and instantiates it for sim::Context (every other engine)
// and for BatchFireContext below. The election library instantiates it,
// so the context lives here rather than in core.
#pragma once

#include <cstddef>
#include <string_view>

#include "sim/link.hpp"
#include "sim/message.hpp"
#include "sim/process.hpp"
#include "sim/stats.hpp"
#include "support/assert.hpp"

namespace hring::election {

/// Per-firing execution context of the batch engine: the accounting of the
/// scalar FireContext (sim/engine.hpp) without observers or fault
/// injection, over the firing process's in-link and out-link.
class BatchFireContext {
 public:
  BatchFireContext(sim::Stats& stats, sim::Link& in_link, sim::Link& out_link,
                   sim::ProcessId pid, std::size_t label_bits,
                   const sim::Message* head)
      : stats_(stats),
        in_link_(in_link),
        out_link_(out_link),
        pid_(pid),
        label_bits_(label_bits),
        head_(head) {}

  // hring-lint: hot-path
  sim::Message consume() {
    HRING_EXPECTS(head_ != nullptr);  // guard matched a message
    HRING_EXPECTS(!consumed_);        // each message received exactly once
    consumed_ = true;
    const sim::Message msg = in_link_.pop();
    // Raw-representation self-check, exactly as in the scalar engine: it
    // must not count toward the label-comparison statistic.
    HRING_ASSERT(msg.kind == head_->kind &&
                 msg.label.value() == head_->label.value());
    ++stats_.messages_received;
    ++stats_.received_by_kind[sim::kind_index(msg.kind)];
    ++stats_.received_by_process[pid_];
    return msg;
  }

  // hring-lint: hot-path
  void send(const sim::Message& msg) {
    ++stats_.messages_sent;
    ++stats_.sent_by_kind[sim::kind_index(msg.kind)];
    ++stats_.sent_by_process[pid_];
    stats_.message_bits_sent += sim::message_bits(msg, label_bits_);
    out_link_.push(msg);
  }

  /// Campaigns record no traces, so action labels are dropped.
  void note_action(std::string_view /*name*/) {}

 private:
  sim::Stats& stats_;
  sim::Link& in_link_;
  sim::Link& out_link_;
  sim::ProcessId pid_;
  std::size_t label_bits_;
  const sim::Message* head_;
  bool consumed_ = false;
};

}  // namespace hring::election
