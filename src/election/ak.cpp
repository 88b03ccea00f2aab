#include "election/ak.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "election/batch_step.hpp"
#include "support/assert.hpp"
#include "words/lyndon.hpp"

namespace hring::election {

bool leader_predicate(const words::LabelSequence& sigma, std::size_t k) {
  HRING_EXPECTS(k >= 1);
  if (sigma.empty()) return false;
  std::map<Label::rep_type, std::size_t> counts;
  std::size_t max_count = 0;
  for (const Label l : sigma) {
    max_count = std::max(max_count, ++counts[l.value()]);
  }
  if (max_count < 2 * k + 1) return false;
  return words::is_lyndon(words::srp(sigma));
}

AkProcess::AkProcess(ProcessId pid, Label id, std::size_t k)
    : Process(pid, id), k_(k) {
  HRING_EXPECTS(k >= 1);
}

void AkProcess::restart(ProcessId pid, Label id) {
  restart_spec(pid, id);
  init_ = true;
  string_.clear();
  counts_.clear();
  max_count_ = 0;
}

// hring-lint: hot-path
std::size_t& AkProcess::count_slot(Label::rep_type value) {
  for (auto& [label, count] : counts_) {
    if (label == value) return count;
  }
  counts_.emplace_back(value, 0);
  return counts_.back().second;
}

// hring-lint: hot-path
bool AkProcess::append_and_test(Label x) {
  string_.push_back(x);
  max_count_ = std::max(max_count_, ++count_slot(x.value()));
  if (max_count_ < 2 * k_ + 1) return false;
  // srp(string) is a Lyndon word iff it is its own least rotation. The
  // rotation is cached with the period, so Booth's scan runs only when the
  // token grew srp.
  return string_.srp_least_rotation() == 0;
}

template <class Ctx>
void AkProcess::fire(const Message* head, Ctx& ctx) {
  if (init_) {
    // A1: p.INIT <- FALSE, p.string <- p.id, send ⟨p.id⟩.
    ctx.note_action("A1");
    init_ = false;
    const bool elected_immediately = append_and_test(id());
    HRING_ASSERT(!elected_immediately);  // needs 2k+1 >= 3 copies
    ctx.send(Message::token(id()));
    return;
  }
  HRING_EXPECTS(head != nullptr);
  if (head->kind == sim::MsgKind::kToken) {
    const Message msg = ctx.consume();
    if (is_leader()) {
      // A5: the leader swallows circulating tokens.
      ctx.note_action("A5");
      return;
    }
    if (!append_and_test(msg.label)) {
      // A2: grow the string, forward the token.
      ctx.note_action("A2");
      ctx.send(Message::token(msg.label));
    } else {
      // A3: Leader(p.string . x) holds — elect self, flood ⟨FINISH⟩.
      ctx.note_action("A3");
      declare_leader();
      set_leader_label(id());
      set_done();
      ctx.send(Message::finish());
    }
    return;
  }
  HRING_EXPECTS(head->kind == sim::MsgKind::kFinish);
  ctx.consume();
  if (!is_leader()) {
    // A4: learn the leader's label from the grown string and halt.
    ctx.note_action("A4");
    // LW(srp(p.string))[1]: LW(srp) starts at srp's least rotation, which
    // the grown string keeps cached — no copy and, mostly, no scan.
    set_leader_label(string_.sequence()[string_.srp_least_rotation()]);
    set_done();
    ctx.send(Message::finish());
    halt_self();
  } else {
    // A6: ⟨FINISH⟩ returned to the leader — the execution is over.
    ctx.note_action("A6");
    halt_self();
  }
}

template void AkProcess::fire<Context>(const Message*, Context&);
template void AkProcess::fire<BatchFireContext>(const Message*,
                                                BatchFireContext&);

std::string AkProcess::debug_state() const {
  std::string out = init_ ? "INIT" : (is_leader() ? "LEADER" : "GROW");
  out += " |string|=" + std::to_string(string_.size());
  if (done()) out += " done";
  if (leader().has_value()) {
    out += " leader=" + words::to_string(*leader());
  }
  return out;
}

void AkProcess::encode(std::vector<std::uint64_t>& out) const {
  Process::encode(out);
  out.push_back(init_ ? 1 : 0);
  out.push_back(string_.size());
  for (const Label l : string_.sequence()) out.push_back(l.value());
  // counts_/max_count_/borders are functions of the string: no need to
  // encode them separately.
}

bool AkProcess::decode(const std::uint64_t*& it, const std::uint64_t* end) {
  if (!decode_spec_vars(it, end)) return false;
  if (end - it < 2) return false;
  const std::uint64_t init_word = *it++;
  if (init_word > 1) return false;  // encoded as exactly 0 or 1
  init_ = (init_word != 0);
  const std::uint64_t length = *it++;
  if (static_cast<std::uint64_t>(end - it) < length) return false;
  const words::LabelSequence& current = string_.sequence();
  const auto same_label = [](std::uint64_t word, Label l) {
    return word == l.value();
  };
  if (length <= current.size() &&
      std::equal(it, it + length, current.begin(), same_label)) {
    // The encoded string is a prefix of the current one (as when the model
    // checker returns the process to a state earlier on its search path):
    // drop the tail's labels from the counts and truncate the string with
    // its border array.
    for (std::size_t i = length; i < current.size(); ++i) {
      --count_slot(current[i].value());
    }
    string_.truncate(length);
    max_count_ = 0;
    for (const auto& entry : counts_) {
      max_count_ = std::max(max_count_, entry.second);
    }
    it += length;
    return true;
  }
  // Otherwise rebuild the string and its derived accelerators (borders,
  // counts) from the encoded labels; every buffer keeps its capacity
  // across restores.
  string_.clear();
  counts_.clear();
  max_count_ = 0;
  for (std::uint64_t i = 0; i < length; ++i) {
    const Label label(static_cast<Label::rep_type>(*it++));
    string_.push_back(label);
    max_count_ = std::max(max_count_, ++count_slot(label.value()));
  }
  return true;
}

sim::ProcessFactory AkProcess::factory(std::size_t k) {
  return [k](ProcessId pid, Label id) {
    return std::make_unique<AkProcess>(pid, id, k);
  };
}

}  // namespace hring::election
