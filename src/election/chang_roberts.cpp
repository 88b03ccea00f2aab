#include "election/chang_roberts.hpp"

#include <memory>

#include "election/batch_step.hpp"
#include "support/assert.hpp"

namespace hring::election {

template <class Ctx>
void ChangRobertsProcess::fire(const Message* head, Ctx& ctx) {
  if (init_) {
    ctx.note_action("CR1");
    init_ = false;
    ctx.send(Message::token(id()));
    return;
  }
  HRING_EXPECTS(head != nullptr);
  switch (head->kind) {
    case sim::MsgKind::kToken: {
      const Label x = ctx.consume().label;
      if (is_leader()) {
        // Leftover candidates are swallowed by the elected leader.
        ctx.note_action("CR-drain");
        return;
      }
      if (x > id()) {
        ctx.note_action("CR-forward");
        ctx.send(Message::token(x));
      } else if (x == id()) {
        // Our candidate survived a full loop: all labels are smaller.
        ctx.note_action("CR-elect");
        declare_leader();
        set_leader_label(id());
        set_done();
        ctx.send(Message::finish_label(id()));
      } else {
        ctx.note_action("CR-swallow");
      }
      return;
    }
    case sim::MsgKind::kFinishLabel: {
      const Label x = ctx.consume().label;
      if (is_leader()) {
        ctx.note_action("CR-halt");
        halt_self();
      } else {
        ctx.note_action("CR-learn");
        set_leader_label(x);
        set_done();
        ctx.send(Message::finish_label(x));
        halt_self();
      }
      return;
    }
    default:
      HRING_ASSERT(false);  // no other kinds are ever sent
  }
}

template void ChangRobertsProcess::fire<Context>(const Message*, Context&);
template void ChangRobertsProcess::fire<BatchFireContext>(const Message*,
                                                          BatchFireContext&);

std::string ChangRobertsProcess::debug_state() const {
  std::string out = init_ ? "INIT" : (is_leader() ? "LEADER" : "RELAY");
  if (done()) out += " done";
  return out;
}

void ChangRobertsProcess::encode(std::vector<std::uint64_t>& out) const {
  Process::encode(out);
  out.push_back(init_ ? 1 : 0);
}

bool ChangRobertsProcess::decode(const std::uint64_t*& it,
                                 const std::uint64_t* end) {
  if (!decode_spec_vars(it, end)) return false;
  if (end - it < 1) return false;
  const std::uint64_t init_word = *it++;
  if (init_word > 1) return false;  // encoded as exactly 0 or 1
  init_ = (init_word != 0);
  return true;
}

sim::ProcessFactory ChangRobertsProcess::factory() {
  return [](ProcessId pid, Label id) {
    return std::make_unique<ChangRobertsProcess>(pid, id);
  };
}

}  // namespace hring::election
