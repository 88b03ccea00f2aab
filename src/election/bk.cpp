#include "election/bk.hpp"

#include <memory>

#include "election/batch_step.hpp"
#include "support/assert.hpp"

namespace hring::election {

const char* bk_state_name(BkState state) {
  switch (state) {
    case BkState::kInit:
      return "INIT";
    case BkState::kCompute:
      return "COMPUTE";
    case BkState::kShift:
      return "SHIFT";
    case BkState::kPassive:
      return "PASSIVE";
    case BkState::kWin:
      return "WIN";
    case BkState::kHalt:
      return "HALT";
  }
  HRING_ASSERT(false);
}

BkProcess::BkProcess(ProcessId pid, Label id, std::size_t k,
                     bool record_history)
    : Process(pid, id), k_(k), record_history_(record_history) {
  HRING_EXPECTS(k >= 1);
}

void BkProcess::restart(ProcessId pid, Label id) {
  restart_spec(pid, id);
  state_ = BkState::kInit;
  guest_ = Label{};
  inner_ = 1;
  outer_ = 1;
  phase_ = 0;
  history_.clear();
}

void BkProcess::enter_phase(Label new_guest, bool active) {
  guest_ = new_guest;
  ++phase_;
  if (record_history_) {
    history_.push_back(PhaseRecord{phase_, guest_, active});
  }
}

template <class Ctx>
void BkProcess::fire(const Message* head, Ctx& ctx) {
  if (state_ == BkState::kInit) {
    // B1: state <- COMPUTE, guest <- id, inner <- 1, outer <- 1,
    //     send ⟨guest⟩.
    ctx.note_action("B1");
    state_ = BkState::kCompute;
    inner_ = 1;
    outer_ = 1;
    enter_phase(id(), /*active=*/true);
    ctx.send(Message::token(guest_));
    return;
  }
  HRING_EXPECTS(head != nullptr);

  if (state_ == BkState::kCompute) {
    HRING_EXPECTS(head->kind == sim::MsgKind::kToken);
    const Label x = ctx.consume().label;
    if (x > guest_) {
      // B2: a larger guest cannot be the minimum — discard it.
      ctx.note_action("B2");
    } else if (x == guest_ && inner_ < k_) {
      // B3: count an occurrence of our own guest and pass it on.
      ctx.note_action("B3");
      ++inner_;
      ctx.send(Message::token(x));
    } else if (x < guest_) {
      // B4: somebody holds a smaller guest — become passive (but forward).
      ctx.note_action("B4");
      state_ = BkState::kPassive;
      ctx.send(Message::token(x));
    } else {
      // B5: x == guest and inner == k — the phase is over for us; start
      // the barrier.
      HRING_ASSERT(x == guest_ && inner_ == k_);
      ctx.note_action("B5");
      state_ = BkState::kShift;
      ctx.send(Message::phase_shift(guest_));
    }
    return;
  }

  if (state_ == BkState::kShift) {
    HRING_EXPECTS(head->kind == sim::MsgKind::kPhaseShift);
    const Label x = ctx.consume().label;
    if (!(x == id()) || outer_ < k_) {
      // B6: adopt the shifted guest and start the next phase.
      ctx.note_action("B6");
      state_ = BkState::kCompute;
      if (x == id()) ++outer_;
      inner_ = 1;
      enter_phase(x, /*active=*/true);
      ctx.send(Message::token(guest_));
    } else {
      // B9: guest becomes the own label for the (k+1)-th time — more than
      // n phases have elapsed, so we are the true leader.
      ctx.note_action("B9");
      state_ = BkState::kWin;
      declare_leader();
      set_leader_label(id());
      enter_phase(id(), /*active=*/true);
      ctx.send(Message::finish_label(id()));
    }
    return;
  }

  if (state_ == BkState::kPassive) {
    switch (head->kind) {
      case sim::MsgKind::kToken: {
        // B7: passive processes forward phase tokens unchanged.
        const Label x = ctx.consume().label;
        ctx.note_action("B7");
        ctx.send(Message::token(x));
        return;
      }
      case sim::MsgKind::kPhaseShift: {
        // B8: forward the barrier carrying our previous guest, then adopt
        // the shifted one.
        const Label x = ctx.consume().label;
        ctx.note_action("B8");
        ctx.send(Message::phase_shift(guest_));
        enter_phase(x, /*active=*/false);
        return;
      }
      case sim::MsgKind::kFinishLabel: {
        // B10: learn the leader, forward the announcement, halt.
        const Label x = ctx.consume().label;
        ctx.note_action("B10");
        state_ = BkState::kHalt;
        ctx.send(Message::finish_label(x));
        set_leader_label(x);
        set_done();
        halt_self();
        return;
      }
      default:
        HRING_ASSERT(false);  // enabled() admitted an impossible kind
    }
  }

  HRING_EXPECTS(state_ == BkState::kWin);
  HRING_EXPECTS(head->kind == sim::MsgKind::kFinishLabel);
  // B11: the announcement returned to the winner.
  ctx.consume();
  ctx.note_action("B11");
  state_ = BkState::kHalt;
  set_done();
  halt_self();
}

template void BkProcess::fire<Context>(const Message*, Context&);
template void BkProcess::fire<BatchFireContext>(const Message*,
                                                BatchFireContext&);

std::string BkProcess::debug_state() const {
  std::string out = bk_state_name(state_);
  out += " g=" + words::to_string(guest_);
  out += " in=" + std::to_string(inner_);
  out += " out=" + std::to_string(outer_);
  out += " ph=" + std::to_string(phase_);
  if (done()) out += " done";
  return out;
}

void BkProcess::encode(std::vector<std::uint64_t>& out) const {
  Process::encode(out);
  out.push_back(static_cast<std::uint64_t>(state_));
  out.push_back(guest_.value());
  out.push_back(inner_);
  out.push_back(outer_);
  // phase_/history_ are Figure 1 instrumentation, not behaviour: two
  // processes differing only there act identically, so they are omitted.
}

bool BkProcess::decode(const std::uint64_t*& it, const std::uint64_t* end) {
  if (!decode_spec_vars(it, end)) return false;
  if (end - it < 4) return false;
  const std::uint64_t state_word = *it++;
  if (state_word > static_cast<std::uint64_t>(BkState::kHalt)) return false;
  state_ = static_cast<BkState>(state_word);
  guest_ = Label(static_cast<Label::rep_type>(*it++));
  const std::uint64_t inner_word = *it++;
  const std::uint64_t outer_word = *it++;
  // Both counters count up to k and never past it (B3/B5 guards).
  if (inner_word > k_ || outer_word > k_) return false;
  inner_ = static_cast<std::size_t>(inner_word);
  outer_ = static_cast<std::size_t>(outer_word);
  // phase_/history_ are instrumentation (see encode) and stay untouched.
  return true;
}

sim::ProcessFactory BkProcess::factory(std::size_t k, bool record_history) {
  return [k, record_history](ProcessId pid, Label id) {
    return std::make_unique<BkProcess>(pid, id, k, record_history);
  };
}

}  // namespace hring::election
