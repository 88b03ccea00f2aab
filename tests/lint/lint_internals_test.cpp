// Unit tests for the hring-lint analysis core (tools/hring_lint): the
// tokenizer, the structural model, and — most load-bearing — the
// statement tree with the consume-path fold over it that backs the
// consume-discipline check. The fixture suite in tests/lint/fixtures
// exercises the checks end to end; these tests pin the primitives they
// are built on.
#include <gtest/gtest.h>

#include <string>

#include "tools/hring_lint/checks.hpp"
#include "tools/hring_lint/concurrency_model.hpp"
#include "tools/hring_lint/lexer.hpp"
#include "tools/hring_lint/protocol_model.hpp"
#include "tools/hring_lint/source_model.hpp"

namespace hring::lint {
namespace {

SourceFile lex_snippet(std::string content) {
  SourceFile f;
  f.path = "snippet.cpp";
  f.content = std::move(content);
  lex(f);
  return f;
}

bool has_token(const SourceFile& f, std::string_view text) {
  for (const Token& t : f.tokens) {
    if (t.is(text)) return true;
  }
  return false;
}

TEST(Lexer, LongestMatchOperators) {
  const SourceFile f = lex_snippet("a <<= b; p->q; A::B; x >= y;");
  EXPECT_TRUE(has_token(f, "<<="));
  EXPECT_TRUE(has_token(f, "->"));
  EXPECT_TRUE(has_token(f, "::"));
  EXPECT_TRUE(has_token(f, ">="));
  EXPECT_FALSE(has_token(f, "<<"));  // consumed by <<=
}

TEST(Lexer, RawStringIsOneToken) {
  const SourceFile f = lex_snippet("auto s = R\"(quote \" paren ))\"; f();");
  // The quote and parens inside the raw string must not produce tokens.
  EXPECT_TRUE(has_token(f, "f"));
  std::size_t strings = 0;
  for (const Token& t : f.tokens) strings += t.kind == TokKind::kString;
  EXPECT_EQ(strings, 1u);
}

TEST(Lexer, CommentsAreCollectedWithLines) {
  const SourceFile f =
      lex_snippet("int a;  // first\n/* second\n   spans */ int b;\n");
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[0].line, 1u);
  EXPECT_EQ(f.comments[1].line, 2u);
  EXPECT_TRUE(has_token(f, "b"));
}

TEST(Lexer, PreprocessorLinesAreSkipped) {
  const SourceFile f =
      lex_snippet("#define FOO(x) \\\n  bar(x)\nint y;\n");
  EXPECT_FALSE(has_token(f, "bar"));
  EXPECT_TRUE(has_token(f, "y"));
}

TEST(SourceModel, TracksBasesConstnessAndHotPathAnnotations) {
  SourceFile f = lex_snippet(
      "class P : public Process {\n"
      " public:\n"
      "  bool enabled(const Message* m) const override { return m != 0; }\n"
      "  void fire(const Message* m, Context& c) override { c.consume(); }\n"
      "};\n"
      "// hring-lint: hot-path\n"
      "inline int fold(int a, int b) { return a ^ b; }\n");
  Model model;
  parse_file(f, model);
  ASSERT_TRUE(model.classes.count("P") == 1);
  EXPECT_TRUE(model.derives_from("P"));
  const ClassInfo& cls = model.classes.at("P");
  const auto guards = model.methods_named(cls, "enabled");
  ASSERT_EQ(guards.size(), 1u);
  EXPECT_TRUE(guards[0]->is_const);
  EXPECT_TRUE(guards[0]->is_override);
  const ClassInfo& free_fns = model.classes.at("");
  bool fold_hot = false;
  for (const MethodInfo& m : free_fns.methods) {
    if (m.name == "fold") fold_hot = m.hot_path;
  }
  EXPECT_TRUE(fold_hot);
}

// --- consume-path analysis ------------------------------------------------

ConsumeSummary analyze(const std::string& body) {
  SourceFile f = lex_snippet(body);
  // The token stream ends with kEof; the body range excludes it.
  return analyze_consume_paths(f, 0, f.tokens.size() - 1);
}

TEST(ConsumePaths, SequenceAccumulates) {
  const ConsumeSummary s = analyze("ctx.consume(); ctx.consume();");
  EXPECT_EQ(s.max_on_path, 2u);
  EXPECT_FALSE(s.in_loop);
}

TEST(ConsumePaths, EarlyReturnSeparatesPaths) {
  const ConsumeSummary s = analyze(
      "if (a) { ctx.consume(); return; }\n"
      "ctx.consume();");
  EXPECT_EQ(s.max_on_path, 1u);
}

TEST(ConsumePaths, RejoinAfterBranchesAddsUp) {
  const ConsumeSummary s = analyze(
      "if (a) { ctx.consume(); } else { ctx.consume(); }\n"
      "ctx.consume();");
  EXPECT_EQ(s.max_on_path, 2u);
}

TEST(ConsumePaths, SwitchSegmentsAreAlternatives) {
  const ConsumeSummary s = analyze(
      "switch (k) {\n"
      "  case kA: ctx.consume(); break;\n"
      "  case kB: ctx.consume(); break;\n"
      "}\n");
  EXPECT_EQ(s.max_on_path, 1u);
}

TEST(ConsumePaths, FallOutOfSwitchRejoins) {
  const ConsumeSummary s = analyze(
      "switch (k) { case kA: ctx.consume(); break; default: break; }\n"
      "ctx.consume();");
  EXPECT_EQ(s.max_on_path, 2u);
}

TEST(ConsumePaths, TerminatingDefaultClosesTheSwitch) {
  // Peterson's relay switch: every case returns and the default is an
  // always-on assert, so nothing flows out of the switch — the trailing
  // consume() belongs to a disjoint path.
  const ConsumeSummary s = analyze(
      "if (relay) {\n"
      "  ctx.consume();\n"
      "  switch (k) {\n"
      "    case kA: ctx.send(m); return;\n"
      "    case kB: halt_self(); return;\n"
      "    default: HRING_ASSERT(false);\n"
      "  }\n"
      "}\n"
      "ctx.consume();");
  EXPECT_EQ(s.max_on_path, 1u);
}

TEST(ConsumePaths, AssertFalseTerminatesAPath) {
  // Everything after the always-on assert is unreachable, and the aborted
  // path itself never completes a firing — no consume is charged at all.
  const ConsumeSummary s = analyze(
      "ctx.consume(); HRING_ASSERT(false); ctx.consume();");
  EXPECT_EQ(s.max_on_path, 0u);
}

TEST(ConsumePaths, ConditionalAssertDoesNotTerminate) {
  const ConsumeSummary s = analyze(
      "ctx.consume(); HRING_EXPECTS(x == y); ctx.consume();");
  EXPECT_EQ(s.max_on_path, 2u);
}

TEST(ConsumePaths, LoopConsumptionIsFlagged) {
  const ConsumeSummary s = analyze("while (x) { ctx.consume(); }");
  EXPECT_TRUE(s.in_loop);
  EXPECT_EQ(s.max_on_path, 1u);
}

TEST(ConsumePaths, LoopWithoutConsumeIsClean) {
  const ConsumeSummary s = analyze(
      "for (int i = 0; i < n; ++i) { relay(i); }\n"
      "ctx.consume();");
  EXPECT_FALSE(s.in_loop);
  EXPECT_EQ(s.max_on_path, 1u);
}

TEST(ConsumePaths, DoWhileConditionFlagsOnlyAnOuterLoop) {
  // The condition is scanned outside its own loop and never counted.
  const ConsumeSummary alone =
      analyze("do { relay(); } while (ctx.consume()); ctx.consume();");
  EXPECT_FALSE(alone.in_loop);
  EXPECT_EQ(alone.max_on_path, 1u);
  const ConsumeSummary nested =
      analyze("while (x) { do { relay(); } while (ctx.consume()); }");
  EXPECT_TRUE(nested.in_loop);
  EXPECT_EQ(nested.max_on_path, 0u);
}

TEST(ConsumePaths, DeadCodeIsScannedOnlyInASwitchSegment) {
  EXPECT_FALSE(analyze("while (x) { return; ctx.consume(); }").in_loop);
  EXPECT_TRUE(
      analyze("while (x) { switch (k) { case kA: return; ctx.consume(); } }")
          .in_loop);
}

TEST(ConsumePaths, ThrowEndsAPathAndGotoContinuesIt) {
  EXPECT_EQ(analyze("ctx.consume(); throw f(ctx.consume());").max_on_path, 0u);
  EXPECT_EQ(analyze("ctx.consume(); goto out; ctx.consume();").max_on_path,
            2u);
}


// ---------------------------------------------------------------------------
// Lexer edge cases the IR extractor walks through.

TEST(Lexer, DigitSeparatorsStayOneNumber) {
  const SourceFile f = lex_snippet("std::uint64_t budget = 1'000'000;");
  std::size_t numbers = 0;
  for (const Token& t : f.tokens) numbers += t.kind == TokKind::kNumber;
  EXPECT_EQ(numbers, 1u);
  EXPECT_TRUE(has_token(f, "1'000'000"));
}

TEST(Lexer, RawStringWithDelimiterIsOneToken) {
  const SourceFile f =
      lex_snippet("auto s = R\"x(case MsgKind::kToken: )\" )x\"; g();");
  // The fake case label inside the raw string must not become tokens.
  EXPECT_FALSE(has_token(f, "case"));
  EXPECT_TRUE(has_token(f, "g"));
  std::size_t strings = 0;
  for (const Token& t : f.tokens) strings += t.kind == TokKind::kString;
  EXPECT_EQ(strings, 1u);
}

TEST(Lexer, NestedTemplateArgumentsInsideSwitch) {
  const SourceFile f = lex_snippet(
      "switch (head->kind) {\n"
      "  case MsgKind::kToken:\n"
      "    counts_ = std::vector<std::pair<Label, std::size_t>>{};\n"
      "    break;\n"
      "}\n");
  EXPECT_TRUE(has_token(f, ">>"));  // closes both template levels at once
  EXPECT_TRUE(has_token(f, "kToken"));
}

// ---------------------------------------------------------------------------
// BitExpr: the symbolic width language of the space-bound check.

TEST(BitExpr, EvaluatesTheoremTwoBudget) {
  const auto e = BitExpr::parse("(2*k+1)*n*b+2*b+3");
  ASSERT_TRUE(e.has_value());
  // n=4, k=2, b=3: (5)*4*3 + 6 + 3 = 69.
  EXPECT_EQ(e->eval(BitEnv{4, 2, 3}), 69u);
}

TEST(BitExpr, LogKFollowsCeilLog2) {
  const auto e = BitExpr::parse("2*log_k+3*b+5");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->eval(BitEnv{5, 1, 2}), 11u);  // log 1 = 0
  EXPECT_EQ(e->eval(BitEnv{5, 3, 2}), 15u);  // ceil(log2 3) = 2
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(6), 3u);
}

TEST(BitExpr, PrecedenceAndWhitespace) {
  const auto e = BitExpr::parse(" 2 + 3 * 4 - 1 ");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->eval(BitEnv{1, 1, 1}), 13u);
}

TEST(BitExpr, SubtractionSaturatesAtZero) {
  const auto e = BitExpr::parse("b-9");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->eval(BitEnv{1, 1, 2}), 0u);
}

TEST(BitExpr, RejectsUnknownSymbolsAndSyntaxErrors) {
  EXPECT_FALSE(BitExpr::parse("2*q+1").has_value());
  EXPECT_FALSE(BitExpr::parse("(2*k+1").has_value());
  EXPECT_FALSE(BitExpr::parse("").has_value());
  EXPECT_FALSE(BitExpr::parse("n n").has_value());
  EXPECT_FALSE(BitExpr::parse("k/2").has_value());
}

// ---------------------------------------------------------------------------
// Concurrency model: roles, shared declarations, and the statement tree
// the lost-wakeup / spsc-ownership checks query.

TEST(ConcurrencyRoles, ParseAndRenderRoundTrip) {
  ASSERT_TRUE(parse_role("producer").has_value());
  EXPECT_EQ(*parse_role("watchdog"), Role::kWatchdog);
  EXPECT_FALSE(parse_role("janitor").has_value());
  RoleSet set;
  set.add(Role::kConsumer);
  set.add(Role::kWatchdog);
  EXPECT_TRUE(set.contains(Role::kConsumer));
  EXPECT_FALSE(set.contains(Role::kProducer));
  EXPECT_EQ(set.render(), "consumer,watchdog");
}

TEST(ConcurrencyRoles, FunctionRoleBindsWithinFourLines) {
  const SourceFile f = lex_snippet(
      "// hring-role: consumer\n"
      "// hring-lint: hot-path\n"
      "void near() {}\n"
      "\n"
      "\n"
      "\n"
      "\n"
      "void far() {}\n");
  EXPECT_EQ(function_role(f, 3), Role::kConsumer);
  EXPECT_FALSE(function_role(f, 8).has_value());
}

TEST(ConcurrencyRoles, SharedDeclsArrowListAndMalformed) {
  const SourceFile f = lex_snippet(
      "class Q {\n"
      "  // hring-shared: producer,coordinator->consumer\n"
      "  std::atomic<int> tail_{0};\n"
      "  // hring-shared: consumer,watchdog\n"
      "  std::atomic<int> beats_{0};\n"
      "  // hring-shared: producer->gremlin\n"
      "  std::atomic<int> broken_{0};\n"
      "};\n");
  const std::vector<SharedDecl> decls = shared_decls(f);
  ASSERT_EQ(decls.size(), 3u);
  EXPECT_EQ(decls[0].member, "tail_");
  EXPECT_TRUE(decls[0].has_arrow);
  EXPECT_TRUE(decls[0].writers.contains(Role::kProducer));
  EXPECT_TRUE(decls[0].writers.contains(Role::kCoordinator));
  EXPECT_TRUE(decls[0].readers.contains(Role::kConsumer));
  EXPECT_FALSE(decls[0].malformed);
  EXPECT_EQ(decls[1].member, "beats_");
  EXPECT_FALSE(decls[1].has_arrow);
  EXPECT_TRUE(decls[1].writers.contains(Role::kWatchdog));
  EXPECT_FALSE(decls[1].malformed);
  EXPECT_TRUE(decls[2].malformed);
}

std::size_t tok_index(const SourceFile& f, std::string_view text) {
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (f.tokens[i].is(text)) return i;
  }
  ADD_FAILURE() << "token not found: " << text;
  return 0;
}

TEST(ConcurrencyStmts, LoopEnclosureSeesBodyAndCondition) {
  const SourceFile f = lex_snippet(
      "before();\n"
      "while (guard()) { inside(); }\n"
      "for (int i = 0; probe(i); ++i) { body(); }\n"
      "after();\n");
  const Stmt tree = build_stmt_tree(f, 0, f.tokens.size() - 1);
  EXPECT_FALSE(loop_enclosed(tree, tok_index(f, "before")));
  EXPECT_TRUE(loop_enclosed(tree, tok_index(f, "guard")));
  EXPECT_TRUE(loop_enclosed(tree, tok_index(f, "inside")));
  EXPECT_TRUE(loop_enclosed(tree, tok_index(f, "probe")));
  EXPECT_TRUE(loop_enclosed(tree, tok_index(f, "body")));
  EXPECT_FALSE(loop_enclosed(tree, tok_index(f, "after")));
}

TEST(ConcurrencyStmts, DominationRequiresEveryPath) {
  const SourceFile f = lex_snippet(
      "publish();\n"
      "if (urgent) { maybe(); }\n"
      "notify();\n");
  const Stmt tree = build_stmt_tree(f, 0, f.tokens.size() - 1);
  const std::size_t notify = tok_index(f, "notify");
  const std::size_t publish = tok_index(f, "publish");
  const std::size_t maybe = tok_index(f, "maybe");
  // The unconditional statement dominates; the branch-only one does not.
  EXPECT_TRUE(dominated_by_range(tree, notify, publish, publish + 1));
  EXPECT_FALSE(dominated_by_range(tree, notify, maybe, maybe + 1));
  // Within the branch, the condition dominates its body.
  const std::size_t urgent = tok_index(f, "urgent");
  EXPECT_TRUE(dominated_by_range(tree, maybe, urgent, urgent + 1));
}

TEST(ConcurrencyStmts, SwitchLabelsAreChildrenTheQueriesSkip) {
  const SourceFile f = lex_snippet(
      "while (run) {\n"
      "  switch (k) { case kA: publish(); break; default: other(); }\n"
      "}\n"
      "notify();\n");
  const Stmt tree = build_stmt_tree(f, 0, f.tokens.size() - 1);
  const Stmt& sw = tree.children[0].children[0].children[0];
  ASSERT_EQ(sw.kind, Stmt::Kind::kSwitch);
  ASSERT_EQ(sw.children.size(), 5u);
  EXPECT_EQ(sw.children[0].kind, Stmt::Kind::kLabel);
  EXPECT_EQ(sw.children[3].kind, Stmt::Kind::kLabel);
  EXPECT_TRUE(f.tokens[sw.children[3].begin].is("default"));
  EXPECT_TRUE(loop_enclosed(tree, tok_index(f, "kA")));
  // A label token is dominated by its switch, not only by its own label.
  const std::size_t sw_tok = tok_index(f, "switch");
  EXPECT_TRUE(
      dominated_by_range(tree, tok_index(f, "kA"), sw_tok, sw_tok + 1));
  const std::size_t publish = tok_index(f, "publish");
  EXPECT_FALSE(
      dominated_by_range(tree, tok_index(f, "notify"), publish, publish + 1));
}

}  // namespace
}  // namespace hring::lint
