#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/tclite/interp.h"
#include "src/tclite/parser.h"
#include "src/tclite/value.h"

namespace rover {
namespace {

std::string Eval(Interp* interp, const std::string& script) {
  auto r = interp->Run(script);
  EXPECT_TRUE(r.ok()) << script << " -> " << r.status();
  return r.ok() ? *r : "<error: " + r.status().ToString() + ">";
}

std::string EvalError(Interp* interp, const std::string& script) {
  auto r = interp->Run(script);
  EXPECT_FALSE(r.ok()) << script << " unexpectedly returned " << (r.ok() ? *r : "");
  return r.ok() ? "" : std::string(r.status().message());
}

// --- value helpers ---

TEST(TclValueTest, ParseInt) {
  EXPECT_EQ(TclParseInt("42"), 42);
  EXPECT_EQ(TclParseInt("-7"), -7);
  EXPECT_EQ(TclParseInt("0x10"), 16);
  EXPECT_EQ(TclParseInt(" 5 "), 5);
  EXPECT_FALSE(TclParseInt("4.2").has_value());
  EXPECT_FALSE(TclParseInt("abc").has_value());
  EXPECT_FALSE(TclParseInt("").has_value());
}

TEST(TclValueTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*TclParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*TclParseDouble("1e3"), 1000.0);
  EXPECT_FALSE(TclParseDouble("12x").has_value());
}

TEST(TclValueTest, ParseBool) {
  EXPECT_EQ(TclParseBool("true"), true);
  EXPECT_EQ(TclParseBool("OFF"), false);
  EXPECT_EQ(TclParseBool("1"), true);
  EXPECT_EQ(TclParseBool("17"), true);
  EXPECT_FALSE(TclParseBool("maybe").has_value());
}

TEST(TclValueTest, ListRoundTrip) {
  const std::vector<std::string> elems = {"a", "b c", "", "{x}", "d\"e", "f\\g"};
  auto split = TclListSplit(TclListJoin(elems));
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, elems);
}

TEST(TclValueTest, ListSplitNested) {
  auto split = TclListSplit("a {b {c d}} e");
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split->size(), 3u);
  EXPECT_EQ((*split)[1], "b {c d}");
}

TEST(TclValueTest, ListSplitUnbalancedFails) {
  EXPECT_FALSE(TclListSplit("a {b").ok());
}

TEST(TclValueTest, ListSplitExactElements) {
  const struct {
    std::string list;
    std::vector<std::string> elems;
  } cases[] = {
      {"a\\ b", {"a b"}},
      {"a\\ b c", {"a b", "c"}},
      {"ab\\", {"ab\\"}},
      {"\\", {"\\"}},
      {"x\\{y\\}z", {"x{y}z"}},
      {"a b", {"a", "b"}},
      {"a\tb", {"a", "b"}},
      {"a\nb", {"a", "b"}},
      {"a\vb", {"a", "b"}},
      {"a\fb", {"a", "b"}},
      {"a\rb", {"a", "b"}},
      {" \t\n\v\f\r", {}},
      {"a\xe9z \xff", {"a\xe9z", "\xff"}},
      {"\"q\\\"t\" {b r}", {"q\"t", "b r"}},
  };
  for (const auto& c : cases) {
    auto split = TclListSplit(c.list);
    ASSERT_TRUE(split.ok()) << c.list << ": " << split.status();
    EXPECT_EQ(*split, c.elems) << c.list;
  }
}

TEST(TclValueTest, ListSplitRejectsJunkAfterClosingDelimiter) {
  auto quoted = TclListSplit("\"a\"b");
  ASSERT_FALSE(quoted.ok());
  EXPECT_EQ(quoted.status().message(), "junk after closing quote in list");
  auto braced = TclListSplit("{a}b");
  ASSERT_FALSE(braced.ok());
  EXPECT_EQ(braced.status().message(), "junk after closing brace in list");
  // Whitespace of any of the six kinds ends the element.
  auto spaced = TclListSplit("\"a\"\tb");
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(*spaced, (std::vector<std::string>{"a", "b"}));
}

// --- parser ---

TEST(TclParserTest, SplitsCommandsAndWords) {
  auto script = ParseScript("set a 1\nset b 2; set c 3");
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script->commands.size(), 3u);
  EXPECT_EQ(script->commands[0].words.size(), 3u);
  EXPECT_EQ(script->commands[2].words[2].parts[0].text, "3");
}

TEST(TclParserTest, CommentsSkipped) {
  auto script = ParseScript("# a comment\nset a 1\n  # another");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->commands.size(), 1u);
}

TEST(TclParserTest, BracedWordIsLiteral) {
  auto script = ParseScript("set a {$x [cmd] \\n}");
  ASSERT_TRUE(script.ok());
  const Word& w = script->commands[0].words[2];
  ASSERT_TRUE(w.IsPureLiteral());
  EXPECT_EQ(w.parts[0].text, "$x [cmd] \\n");
}

TEST(TclParserTest, UnbalancedBraceFails) {
  EXPECT_FALSE(ParseScript("set a {oops").ok());
  EXPECT_FALSE(ParseScript("set a [oops").ok());
  EXPECT_FALSE(ParseScript("set a \"oops").ok());
}

TEST(TclParserTest, VariableForms) {
  auto script = ParseScript("puts $a${b}c$d");
  ASSERT_TRUE(script.ok());
  const Word& w = script->commands[0].words[1];
  ASSERT_EQ(w.parts.size(), 4u);
  EXPECT_EQ(w.parts[0].kind, WordPart::Kind::kVariable);
  EXPECT_EQ(w.parts[0].text, "a");
  EXPECT_EQ(w.parts[1].text, "b");
  EXPECT_EQ(w.parts[2].text, "c");
  EXPECT_EQ(w.parts[3].text, "d");
}

// --- interpreter basics ---

TEST(InterpTest, SetAndGet) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "set x 41; incr x"), "42");
  EXPECT_EQ(Eval(&interp, "set x"), "42");
}

TEST(InterpTest, UnknownCommandErrors) {
  Interp interp;
  EXPECT_NE(EvalError(&interp, "definitely_not_a_command").find("invalid command"),
            std::string::npos);
}

TEST(InterpTest, UnknownVariableErrors) {
  Interp interp;
  EXPECT_NE(EvalError(&interp, "puts $missing").find("no such variable"),
            std::string::npos);
}

TEST(InterpTest, CommandSubstitution) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "set a [expr {2 + 3}]"), "5");
  EXPECT_EQ(Eval(&interp, "set b x[expr {1+1}]y"), "x2y");
}

TEST(InterpTest, QuotedStringsSubstitute) {
  Interp interp;
  Eval(&interp, "set name world");
  EXPECT_EQ(Eval(&interp, "set msg \"hello $name\""), "hello world");
  EXPECT_EQ(Eval(&interp, "set raw {hello $name}"), "hello $name");
}

TEST(InterpTest, Escapes) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, R"(set s "a\tb\nc")"), "a\tb\nc");
  EXPECT_EQ(Eval(&interp, R"(set d \$x)"), "$x");
}

TEST(InterpTest, PutsCapturedInOutput) {
  Interp interp;
  Eval(&interp, "puts hello; puts -nonewline there");
  EXPECT_EQ(interp.TakeOutput(), "hello\nthere");
  EXPECT_EQ(interp.output(), "");
}

// --- control flow ---

TEST(InterpTest, IfElse) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "if {1 < 2} {set r yes} else {set r no}"), "yes");
  EXPECT_EQ(Eval(&interp, "if {1 > 2} {set r yes} else {set r no}"), "no");
  EXPECT_EQ(Eval(&interp, "if {0} {set r a} elseif {1} {set r b} else {set r c}"), "b");
}

TEST(InterpTest, WhileLoopWithBreakContinue) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, R"(
    set sum 0
    set i 0
    while {$i < 100} {
      incr i
      if {$i % 2 == 0} { continue }
      if {$i > 10} { break }
      set sum [expr {$sum + $i}]
    }
    set sum
  )"),
            "25");  // 1+3+5+7+9
}

TEST(InterpTest, ForLoop) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, R"(
    set total 0
    for {set i 1} {$i <= 10} {incr i} { set total [expr {$total + $i}] }
    set total
  )"),
            "55");
}

TEST(InterpTest, ForeachSingleAndMultiVar) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, R"(
    set out {}
    foreach x {a b c} { append out $x }
    set out
  )"),
            "abc");
  EXPECT_EQ(Eval(&interp, R"(
    set out {}
    foreach {k v} {one 1 two 2} { append out "$k=$v;" }
    set out
  )"),
            "one=1;two=2;");
}

TEST(InterpTest, CatchCapturesErrors) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "catch {error boom} msg"), "1");
  EXPECT_EQ(Eval(&interp, "set msg"), "boom");
  EXPECT_EQ(Eval(&interp, "catch {expr {1+1}} msg"), "0");
  EXPECT_EQ(Eval(&interp, "set msg"), "2");
}

// --- procs ---

TEST(InterpTest, ProcDefinitionAndCall) {
  Interp interp;
  Eval(&interp, "proc add {a b} { return [expr {$a + $b}] }");
  EXPECT_EQ(Eval(&interp, "add 2 40"), "42");
}

TEST(InterpTest, ProcLocalScope) {
  Interp interp;
  Eval(&interp, "set x global_value");
  Eval(&interp, "proc shadow {} { set x local; return $x }");
  EXPECT_EQ(Eval(&interp, "shadow"), "local");
  EXPECT_EQ(Eval(&interp, "set x"), "global_value");
}

TEST(InterpTest, ProcGlobalLink) {
  Interp interp;
  Eval(&interp, "set counter 0");
  Eval(&interp, "proc bump {} { global counter; incr counter }");
  Eval(&interp, "bump; bump; bump");
  EXPECT_EQ(Eval(&interp, "set counter"), "3");
}

TEST(InterpTest, ProcDefaultsAndVarargs) {
  Interp interp;
  Eval(&interp, "proc greet {name {greeting hello}} { return \"$greeting $name\" }");
  EXPECT_EQ(Eval(&interp, "greet rover"), "hello rover");
  EXPECT_EQ(Eval(&interp, "greet rover hi"), "hi rover");
  Eval(&interp, "proc count {first args} { return [llength $args] }");
  EXPECT_EQ(Eval(&interp, "count a b c d"), "3");
}

TEST(InterpTest, ProcWrongArityErrors) {
  Interp interp;
  Eval(&interp, "proc f {a b} { return $a }");
  EXPECT_NE(EvalError(&interp, "f 1").find("wrong # args"), std::string::npos);
  EXPECT_NE(EvalError(&interp, "f 1 2 3").find("wrong # args"), std::string::npos);
}

TEST(InterpTest, RecursiveProc) {
  Interp interp;
  Eval(&interp, "proc fib {n} { if {$n < 2} { return $n }; "
                "return [expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]}] }");
  EXPECT_EQ(Eval(&interp, "fib 15"), "610");
}

// --- expr ---

TEST(ExprTest, Arithmetic) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "expr {2 + 3 * 4}"), "14");
  EXPECT_EQ(Eval(&interp, "expr {(2 + 3) * 4}"), "20");
  EXPECT_EQ(Eval(&interp, "expr {7 / 2}"), "3");
  EXPECT_EQ(Eval(&interp, "expr {7.0 / 2}"), "3.5");
  EXPECT_EQ(Eval(&interp, "expr {7 % 3}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {-3 + 1}"), "-2");
}

TEST(ExprTest, Comparisons) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "expr {1 < 2}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {2 <= 2}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {3 == 3.0}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {\"abc\" eq \"abc\"}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {\"abc\" ne \"abd\"}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {\"10\" == \"10.0\"}"), "1");  // numeric compare
}

TEST(ExprTest, LogicalAndTernary) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "expr {1 && 0}"), "0");
  EXPECT_EQ(Eval(&interp, "expr {1 || 0}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {!3}"), "0");
  EXPECT_EQ(Eval(&interp, "expr {1 < 2 ? \"yes\" : \"no\"}"), "yes");
}

TEST(ExprTest, BitwiseAndShift) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "expr {6 & 3}"), "2");
  EXPECT_EQ(Eval(&interp, "expr {6 | 3}"), "7");
  EXPECT_EQ(Eval(&interp, "expr {6 ^ 3}"), "5");
  EXPECT_EQ(Eval(&interp, "expr {1 << 10}"), "1024");
  EXPECT_EQ(Eval(&interp, "expr {~0}"), "-1");
}

TEST(ExprTest, Functions) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "expr {abs(-5)}"), "5");
  EXPECT_EQ(Eval(&interp, "expr {int(3.9)}"), "3");
  EXPECT_EQ(Eval(&interp, "expr {round(3.5)}"), "4");
  EXPECT_EQ(Eval(&interp, "expr {min(3, 1, 2)}"), "1");
  EXPECT_EQ(Eval(&interp, "expr {max(3, 1, 2)}"), "3");
  EXPECT_EQ(Eval(&interp, "expr {sqrt(16)}"), "4.0");
  EXPECT_EQ(Eval(&interp, "expr {pow(2, 10)}"), "1024.0");
}

TEST(ExprTest, VariablesAndNestedCommands) {
  Interp interp;
  Eval(&interp, "set n 6");
  EXPECT_EQ(Eval(&interp, "expr {$n * 7}"), "42");
  EXPECT_EQ(Eval(&interp, "expr {[llength {a b c}] + 1}"), "4");
}

TEST(ExprTest, DivideByZeroErrors) {
  Interp interp;
  EXPECT_NE(EvalError(&interp, "expr {1 / 0}").find("divide by zero"),
            std::string::npos);
  EXPECT_NE(EvalError(&interp, "expr {1 % 0}").find("divide by zero"),
            std::string::npos);
}

TEST(ExprTest, DeterministicRand) {
  Interp a;
  Interp b;
  EXPECT_EQ(Eval(&a, "expr {srand(11) + rand()}"), Eval(&b, "expr {srand(11) + rand()}"));
}

// --- lists & strings ---

TEST(ListCmdTest, Basics) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "list a b {c d}"), "a b {c d}");
  EXPECT_EQ(Eval(&interp, "llength {a b {c d}}"), "3");
  EXPECT_EQ(Eval(&interp, "lindex {a b c} 1"), "b");
  EXPECT_EQ(Eval(&interp, "lindex {a b c} end"), "c");
  EXPECT_EQ(Eval(&interp, "lindex {a b c} 99"), "");
  EXPECT_EQ(Eval(&interp, "lrange {a b c d e} 1 3"), "b c d");
  EXPECT_EQ(Eval(&interp, "lrange {a b c d e} 3 end"), "d e");
  EXPECT_EQ(Eval(&interp, "lsearch {x y z} y"), "1");
  EXPECT_EQ(Eval(&interp, "lsearch {x y z} w"), "-1");
}

TEST(ListCmdTest, LappendBuildsList) {
  Interp interp;
  Eval(&interp, "lappend acc one; lappend acc {two three}");
  EXPECT_EQ(Eval(&interp, "llength $acc"), "2");
  EXPECT_EQ(Eval(&interp, "lindex $acc 1"), "two three");
}

TEST(ListCmdTest, Lsort) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "lsort {banana apple cherry}"), "apple banana cherry");
  EXPECT_EQ(Eval(&interp, "lsort -integer {10 2 33 4}"), "2 4 10 33");
  EXPECT_EQ(Eval(&interp, "lsort -integer -decreasing {10 2 33 4}"), "33 10 4 2");
}

TEST(ListCmdTest, JoinSplitConcat) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "join {a b c} -"), "a-b-c");
  EXPECT_EQ(Eval(&interp, "split a-b-c -"), "a b c");
  EXPECT_EQ(Eval(&interp, "concat {a b} {c d}"), "a b c d");
}

TEST(DictCmdTest, GetSetExistsKeys) {
  Interp interp;
  Eval(&interp, "set d [dict set {} name rover]");
  Eval(&interp, "set d [dict set $d year 1995]");
  EXPECT_EQ(Eval(&interp, "dict get $d name"), "rover");
  EXPECT_EQ(Eval(&interp, "dict get $d year"), "1995");
  EXPECT_EQ(Eval(&interp, "dict exists $d name"), "1");
  EXPECT_EQ(Eval(&interp, "dict exists $d venue"), "0");
  EXPECT_EQ(Eval(&interp, "dict keys $d"), "name year");
  EXPECT_NE(EvalError(&interp, "dict get $d venue").find("not known"),
            std::string::npos);
}

TEST(StringCmdTest, Subcommands) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "string length hello"), "5");
  EXPECT_EQ(Eval(&interp, "string toupper hello"), "HELLO");
  EXPECT_EQ(Eval(&interp, "string tolower HeLLo"), "hello");
  EXPECT_EQ(Eval(&interp, "string index hello 1"), "e");
  EXPECT_EQ(Eval(&interp, "string index hello end"), "o");
  EXPECT_EQ(Eval(&interp, "string range hello 1 3"), "ell");
  EXPECT_EQ(Eval(&interp, "string trim {  hi  }"), "hi");
  EXPECT_EQ(Eval(&interp, "string compare abc abd"), "-1");
  EXPECT_EQ(Eval(&interp, "string equal abc abc"), "1");
  EXPECT_EQ(Eval(&interp, "string first ll hello"), "2");
  EXPECT_EQ(Eval(&interp, "string repeat ab 3"), "ababab");
}

TEST(StringCmdTest, GlobMatch) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "string match {*.html} index.html"), "1");
  EXPECT_EQ(Eval(&interp, "string match {*.html} index.txt"), "0");
  EXPECT_EQ(Eval(&interp, "string match {f?o} foo"), "1");
  EXPECT_EQ(Eval(&interp, "string match {a*b*c} axxbyyc"), "1");
}

TEST(FormatCmdTest, Conversions) {
  Interp interp;
  EXPECT_EQ(Eval(&interp, "format {%d-%s} 7 seven"), "7-seven");
  EXPECT_EQ(Eval(&interp, "format {%05d} 42"), "00042");
  EXPECT_EQ(Eval(&interp, "format {%.2f} 3.14159"), "3.14");
  EXPECT_EQ(Eval(&interp, "format {%x} 255"), "ff");
  EXPECT_EQ(Eval(&interp, "format {100%%}"), "100%");
}

// --- sandbox limits ---

TEST(SandboxTest, CommandBudgetEnforced) {
  ExecLimits limits;
  limits.max_commands = 1000;
  Interp interp(limits);
  EXPECT_NE(EvalError(&interp, "while {1} { set x 1 }").find("budget"),
            std::string::npos);
}

TEST(SandboxTest, BudgetResetAllowsMoreWork) {
  ExecLimits limits;
  limits.max_commands = 500;
  Interp interp(limits);
  Eval(&interp, "for {set i 0} {$i < 50} {incr i} {}");
  interp.ResetBudget();
  Eval(&interp, "for {set i 0} {$i < 50} {incr i} {}");
}

TEST(SandboxTest, RecursionDepthEnforced) {
  ExecLimits limits;
  limits.max_depth = 20;
  Interp interp(limits);
  Eval(&interp, "proc loop {} { loop }");
  EXPECT_NE(EvalError(&interp, "loop").find("recursion"), std::string::npos);
}

TEST(SandboxTest, InfiniteRecursionInExprCaught) {
  ExecLimits limits;
  limits.max_depth = 30;
  Interp interp(limits);
  Eval(&interp, "proc f {} { expr {[f] + 1} }");
  EXPECT_FALSE(interp.Run("f").ok());
}

TEST(SandboxTest, BufferedOutputCountsAgainstStorageCap) {
  ExecLimits limits;
  limits.max_storage_bytes = 1024;
  Interp interp(limits);
  Eval(&interp, "puts [string repeat x 600]");
  EXPECT_NE(EvalError(&interp, "puts [string repeat x 600]").find("output storage limit"),
            std::string::npos);
  EXPECT_EQ(interp.output().size(), 601u);
  // Proc entry checks variables plus output: 601 + 435 bytes is over.
  Eval(&interp, "proc f {} { return ok }; set pad [string repeat y 400]");
  EXPECT_NE(EvalError(&interp, "f").find("storage limit"), std::string::npos);
  interp.TakeOutput();
  EXPECT_EQ(Eval(&interp, "f"), "ok");
}

// --- command lookup: procs, then host commands, then builtins ---

TEST(InterpTest, ProcShadowsBuiltin) {
  Interp interp;
  Eval(&interp, "proc incr {} { return mine }");
  EXPECT_EQ(Eval(&interp, "incr"), "mine");
  EXPECT_EQ(Eval(&interp, "set x 1"), "1");  // other builtins unaffected
}

TEST(InterpTest, HostCommandShadowsBuiltinButNotProc) {
  Interp interp;
  interp.RegisterCommand("string", [](Interp*, const std::vector<std::string>&) {
    return EvalResult::Ok("host");
  });
  EXPECT_EQ(Eval(&interp, "string length abc"), "host");
  // Listed once, in name order among the builtins.
  const std::vector<std::string> names = interp.CommandNames();
  EXPECT_EQ(std::count(names.begin(), names.end(), "string"), 1);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  Eval(&interp, "proc string {args} { return proc }");
  EXPECT_EQ(Eval(&interp, "string length abc"), "proc");
}

// --- parse cache ---

TEST(InterpTest, ParseCacheHitsOnReexecution) {
  Interp interp;
  Eval(&interp, "proc body {} { set x 1 }");
  for (int i = 0; i < 10; ++i) {
    Eval(&interp, "body");
  }
  EXPECT_GT(interp.stats().parse_cache_hits, 5u);
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

std::string Eval2(Interp* interp, const std::string& script) {
  auto r = interp->Run(script);
  EXPECT_TRUE(r.ok()) << script << " -> " << r.status();
  return r.ok() ? *r : "<error>";
}

TEST(ListCmdTest, Lreverse) {
  Interp interp;
  EXPECT_EQ(Eval2(&interp, "lreverse {a b c}"), "c b a");
  EXPECT_EQ(Eval2(&interp, "lreverse {}"), "");
}

TEST(ListCmdTest, Linsert) {
  Interp interp;
  EXPECT_EQ(Eval2(&interp, "linsert {a b c} 1 x y"), "a x y b c");
  EXPECT_EQ(Eval2(&interp, "linsert {a b c} 0 z"), "z a b c");
  EXPECT_EQ(Eval2(&interp, "linsert {a b c} end w"), "a b c w");
  EXPECT_EQ(Eval2(&interp, "linsert {a b c} 99 w"), "a b c w");  // clamped
}

TEST(ListCmdTest, Lreplace) {
  Interp interp;
  EXPECT_EQ(Eval2(&interp, "lreplace {a b c d} 1 2 X"), "a X d");
  EXPECT_EQ(Eval2(&interp, "lreplace {a b c d} 0 0"), "b c d");
  EXPECT_EQ(Eval2(&interp, "lreplace {a b c d} 2 end"), "a b");
  EXPECT_EQ(Eval2(&interp, "lreplace {a b c} 1 1 x y z"), "a x y z c");
}

TEST(SwitchCmdTest, ExactAndDefault) {
  Interp interp;
  const char* script = R"(
    proc classify {x} {
      switch $x {
        red { return warm }
        blue { return cool }
        default { return unknown }
      }
    }
  )";
  Eval2(&interp, script);
  EXPECT_EQ(Eval2(&interp, "classify red"), "warm");
  EXPECT_EQ(Eval2(&interp, "classify blue"), "cool");
  EXPECT_EQ(Eval2(&interp, "classify green"), "unknown");
}

TEST(SwitchCmdTest, GlobMode) {
  Interp interp;
  EXPECT_EQ(Eval2(&interp, "switch -glob index.html {*.html {set r page} *.gif {set r image} default {set r other}}"),
            "page");
}

TEST(SwitchCmdTest, FallThroughBodies) {
  Interp interp;
  EXPECT_EQ(Eval2(&interp, "switch b {a - b {set r ab} c {set r c}}"), "ab");
}

TEST(SwitchCmdTest, InlineClauses) {
  Interp interp;
  EXPECT_EQ(Eval2(&interp, "switch x a {set r 1} x {set r 2}"), "2");
  EXPECT_EQ(Eval2(&interp, "switch nomatch a {set r 1}"), "");
}

TEST(StringCmdTest, Map) {
  Interp interp;
  EXPECT_EQ(Eval2(&interp, "string map {a 1 b 2} abcab"), "12c12");
  EXPECT_EQ(Eval2(&interp, "string map {ab X} ababc"), "XXc");
  EXPECT_EQ(Eval2(&interp, "string map {} abc"), "abc");
}

}  // namespace
}  // namespace rover

namespace rover {
namespace {

std::string Eval3(Interp* interp, const std::string& script) {
  auto r = interp->Run(script);
  EXPECT_TRUE(r.ok()) << script << " -> " << r.status();
  return r.ok() ? *r : "<error>";
}

TEST(UpvarTest, AliasesCallerVariable) {
  Interp interp;
  Eval3(&interp, "proc bump {varName} { upvar $varName v; incr v }");
  Eval3(&interp, "set count 10; bump count; bump count");
  EXPECT_EQ(Eval3(&interp, "set count"), "12");
}

TEST(UpvarTest, HashZeroReachesGlobal) {
  Interp interp;
  Eval3(&interp, "set g 1");
  Eval3(&interp, R"(
    proc inner {} { upvar #0 g x; set x 99 }
    proc outer {} { inner }
  )");
  Eval3(&interp, "outer");
  EXPECT_EQ(Eval3(&interp, "set g"), "99");
}

TEST(UpvarTest, TwoLevelChain) {
  Interp interp;
  Eval3(&interp, R"(
    proc leaf {} { upvar 2 top t; set t deep }
    proc mid {} { leaf }
    proc root {} { set top shallow; mid; return $top }
  )");
  EXPECT_EQ(Eval3(&interp, "root"), "deep");
}

TEST(UpvarTest, LevelBeyondDepthErrors) {
  Interp interp;
  Eval3(&interp, "proc f {} { upvar 5 x y }");
  EXPECT_FALSE(interp.Run("f").ok());
}

TEST(UpvarTest, MultiplePairs) {
  Interp interp;
  Eval3(&interp, "proc swap {an bn} { upvar $an a $bn b; set t $a; set a $b; set b $t }");
  Eval3(&interp, "set x 1; set y 2; swap x y");
  EXPECT_EQ(Eval3(&interp, "set x"), "2");
  EXPECT_EQ(Eval3(&interp, "set y"), "1");
}

TEST(UplevelTest, EvaluatesInCallerScope) {
  Interp interp;
  Eval3(&interp, "proc defvar {name value} { uplevel set $name $value }");
  Eval3(&interp, "proc user {} { defvar local 42; return $local }");
  EXPECT_EQ(Eval3(&interp, "user"), "42");
}

TEST(UplevelTest, HashZeroEvaluatesGlobally) {
  Interp interp;
  Eval3(&interp, "proc deep {} { uplevel #0 {set gvar made-global} }");
  Eval3(&interp, "proc mid {} { deep }");
  Eval3(&interp, "mid");
  EXPECT_EQ(Eval3(&interp, "set gvar"), "made-global");
}

TEST(UplevelTest, ControlConstructBuiltFromUplevel) {
  // The classic use: building new control structures. A `repeat` command
  // whose body runs in the caller's scope.
  Interp interp;
  Eval3(&interp, R"(
    proc repeat {n body} {
      for {set i 0} {$i < $n} {incr i} { uplevel $body }
    }
  )");
  Eval3(&interp, "set total 0; repeat 5 { incr total 2 }");
  EXPECT_EQ(Eval3(&interp, "set total"), "10");
}

TEST(UplevelTest, FramesRestoredAfterError) {
  Interp interp;
  Eval3(&interp, "proc f {} { set mine 7; catch { uplevel {error boom} }; return $mine }");
  EXPECT_EQ(Eval3(&interp, "f"), "7");
}

}  // namespace
}  // namespace rover
