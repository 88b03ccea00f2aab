#include "election/peterson.hpp"

#include <memory>

#include "election/batch_step.hpp"
#include "support/assert.hpp"

namespace hring::election {

template <class Ctx>
void PetersonProcess::fire(const Message* head, Ctx& ctx) {
  if (mode_ == Mode::kInit) {
    ctx.note_action("P-start");
    mode_ = Mode::kActive;
    expecting_second_ = false;
    ctx.send(Message::probe_one(tid_));
    return;
  }
  HRING_EXPECTS(head != nullptr);

  if (mode_ == Mode::kActive) {
    if (!expecting_second_) {
      HRING_EXPECTS(head->kind == sim::MsgKind::kProbeOne);
      ntid_ = ctx.consume().label;
      if (ntid_ == tid_) {
        // Our probe circled the whole ring: we are the only active
        // process left. Elect ourselves and announce our own label.
        ctx.note_action("P-elect");
        mode_ = Mode::kWon;
        declare_leader();
        set_leader_label(id());
        set_done();
        ctx.send(Message::finish_label(id()));
      } else {
        ctx.note_action("P-probe2");
        expecting_second_ = true;
        ctx.send(Message::probe_two(ntid_));
      }
      return;
    }
    HRING_EXPECTS(head->kind == sim::MsgKind::kProbeTwo);
    const Label nntid = ctx.consume().label;
    if (tid_ < ntid_ && nntid < ntid_) {
      // ntid is a local maximum among the active tids: survive with it.
      ctx.note_action("P-survive");
      tid_ = ntid_;
      expecting_second_ = false;
      ctx.send(Message::probe_one(tid_));
    } else {
      ctx.note_action("P-demote");
      mode_ = Mode::kRelay;
    }
    return;
  }

  if (mode_ == Mode::kRelay) {
    const Message msg = ctx.consume();
    switch (msg.kind) {
      case sim::MsgKind::kProbeOne:
      case sim::MsgKind::kProbeTwo:
        ctx.note_action("P-relay");
        ctx.send(msg);
        return;
      case sim::MsgKind::kFinishLabel:
        ctx.note_action("P-learn");
        set_leader_label(msg.label);
        set_done();
        ctx.send(msg);
        mode_ = Mode::kHalted;
        halt_self();
        return;
      default:
        HRING_ASSERT(false);  // no other kinds are ever sent
    }
  }

  HRING_EXPECTS(mode_ == Mode::kWon);
  HRING_EXPECTS(head->kind == sim::MsgKind::kFinishLabel);
  ctx.consume();
  ctx.note_action("P-halt");
  mode_ = Mode::kHalted;
  halt_self();
}

template void PetersonProcess::fire<Context>(const Message*, Context&);
template void PetersonProcess::fire<BatchFireContext>(const Message*,
                                                      BatchFireContext&);

std::string PetersonProcess::debug_state() const {
  const char* mode = "?";
  switch (mode_) {
    case Mode::kInit:
      mode = "INIT";
      break;
    case Mode::kActive:
      mode = "ACTIVE";
      break;
    case Mode::kRelay:
      mode = "RELAY";
      break;
    case Mode::kWon:
      mode = "WON";
      break;
    case Mode::kHalted:
      mode = "HALTED";
      break;
  }
  std::string out = mode;
  out += " tid=" + words::to_string(tid_);
  if (done()) out += " done";
  return out;
}

void PetersonProcess::encode(std::vector<std::uint64_t>& out) const {
  Process::encode(out);
  out.push_back((static_cast<std::uint64_t>(expecting_second_) << 0) |
                (static_cast<std::uint64_t>(mode_) << 1));
  out.push_back(tid_.value());
  out.push_back(ntid_.value());
}

bool PetersonProcess::decode(const std::uint64_t*& it,
                             const std::uint64_t* end) {
  if (!decode_spec_vars(it, end)) return false;
  if (end - it < 3) return false;
  const std::uint64_t packed = *it++;
  // Bit 0 is the expecting flag, bits 1+ the 5-valued mode; any word
  // outside that range is not a PetersonProcess snapshot.
  if ((packed >> 1) > static_cast<std::uint64_t>(Mode::kHalted)) return false;
  expecting_second_ = (packed & 1U) != 0;
  mode_ = static_cast<Mode>(packed >> 1);
  tid_ = Label(static_cast<Label::rep_type>(*it++));
  ntid_ = Label(static_cast<Label::rep_type>(*it++));
  return true;
}

sim::ProcessFactory PetersonProcess::factory() {
  return [](ProcessId pid, Label id) {
    return std::make_unique<PetersonProcess>(pid, id);
  };
}

}  // namespace hring::election
