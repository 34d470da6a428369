//===- tests/smtlib_parser_test.cpp - Parser/printer unit tests -----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "smtlib/Parser.h"
#include "smtlib/Printer.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

TEST(LexerViaParserTest, CommentsAndWhitespace) {
  TermManager M;
  auto R = parseSmtLib(M, "; a comment\n(set-logic QF_NIA) ; trailing\n"
                          "(declare-fun x () Int)\n(assert (= x 3))\n"
                          "(check-sat)\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Parsed.Logic, "QF_NIA");
  EXPECT_EQ(R.Parsed.Variables.size(), 1u);
  EXPECT_EQ(R.Parsed.Assertions.size(), 1u);
  EXPECT_TRUE(R.Parsed.HasCheckSat);
}

TEST(ParserTest, MotivatingExample) {
  // The paper's Fig. 1a.
  TermManager M;
  auto R = parseSmtLib(M,
                       "(declare-fun x () Int)\n"
                       "(declare-fun y () Int)\n"
                       "(declare-fun z () Int)\n"
                       "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))\n"
                       "(check-sat)\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Parsed.Assertions.size(), 1u);
  Term A = R.Parsed.Assertions[0];
  EXPECT_EQ(M.kind(A), Kind::Eq);
  Term Sum = M.child(A, 0);
  EXPECT_EQ(M.kind(Sum), Kind::Add);
  EXPECT_EQ(M.numChildren(Sum), 3u);
  EXPECT_EQ(M.kind(M.child(Sum, 0)), Kind::Mul);
  EXPECT_EQ(M.intValue(M.child(A, 1)).toString(), "855");
}

TEST(ParserTest, BitVecTransformedExample) {
  // The paper's Fig. 1b (overflow guard included).
  TermManager M;
  auto R = parseSmtLib(
      M, "(declare-fun x () (_ BitVec 12))\n"
         "(assert (not (bvsmulo x x)))\n"
         "(assert (= (bvmul x x x) (_ bv855 12)))\n"
         "(check-sat)\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Parsed.Assertions.size(), 2u);
  EXPECT_EQ(M.kind(R.Parsed.Assertions[0]), Kind::Not);
  EXPECT_EQ(M.kind(M.child(R.Parsed.Assertions[0], 0)), Kind::BvSMulO);
  Term Eq = R.Parsed.Assertions[1];
  EXPECT_EQ(M.sort(M.child(Eq, 0)).bitVecWidth(), 12u);
  EXPECT_EQ(M.bitVecValue(M.child(Eq, 1)).toUnsigned().toString(), "855");
}

TEST(ParserTest, LetBindingsAreSimultaneous) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)\n"
                          "(assert (let ((y (+ x 1)) (z x)) (= y z)))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  Term A = R.Parsed.Assertions[0];
  EXPECT_EQ(M.kind(A), Kind::Eq);
  EXPECT_EQ(M.kind(M.child(A, 0)), Kind::Add);
  EXPECT_EQ(M.kind(M.child(A, 1)), Kind::Variable);
  // Nested let where inner shadows.
  auto R2 = parseSmtLib(M, "(assert (let ((a true)) (let ((a false)) a)))\n");
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Parsed.Assertions[0], M.mkFalse());
}

TEST(ParserTest, DefineFunMacro) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)\n"
                          "(define-fun twice () Int (* 2 x))\n"
                          "(assert (> twice 10))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  Term A = R.Parsed.Assertions[0];
  EXPECT_EQ(M.kind(A), Kind::Gt);
  EXPECT_EQ(M.kind(M.child(A, 0)), Kind::Mul);
}

TEST(ParserTest, RealLiteralsAndCoercion) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun r () Real)\n"
                          "(assert (< r 2.5))\n"
                          "(assert (> (* r r) 2))\n" // Numeral coerced.
                          "(assert (= (/ r 3) 0.125))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  Term Second = R.Parsed.Assertions[1];
  EXPECT_TRUE(M.sort(M.child(Second, 1)).isReal());
  Term Third = R.Parsed.Assertions[2];
  EXPECT_EQ(M.kind(M.child(Third, 0)), Kind::RealDiv);
  EXPECT_TRUE(M.sort(M.child(M.child(Third, 0), 1)).isReal());
}

TEST(ParserTest, NegativeLiteralsViaMinus) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)\n"
                          "(declare-fun r () Real)\n"
                          "(assert (>= x (- 2048)))\n"
                          "(assert (<= r (- 2.5)))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  // `(- literal)` folds to the negative constant, so that printed scripts
  // re-parse to the identical term.
  Term Rhs = M.child(R.Parsed.Assertions[0], 1);
  EXPECT_EQ(M.kind(Rhs), Kind::ConstInt);
  EXPECT_EQ(M.intValue(Rhs).toString(), "-2048");
  Term RealRhs = M.child(R.Parsed.Assertions[1], 1);
  EXPECT_EQ(M.kind(RealRhs), Kind::ConstReal);
  EXPECT_EQ(M.realValue(RealRhs).toString(), "-5/2");
}

TEST(ParserTest, ConstantRealDivisionFolds) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun r () Real)\n"
                          "(assert (= r (/ 1.0 3.0)))\n"
                          "(assert (= r (/ r 0.0)))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  Term Folded = M.child(R.Parsed.Assertions[0], 1);
  EXPECT_EQ(M.kind(Folded), Kind::ConstReal);
  EXPECT_EQ(M.realValue(Folded).toString(), "1/3");
  // Division by a zero literal must stay symbolic (undefined in SMT-LIB).
  EXPECT_EQ(M.kind(M.child(R.Parsed.Assertions[1], 1)), Kind::RealDiv);
}

TEST(ParserTest, FpOperations) {
  TermManager M;
  auto R = parseSmtLib(
      M, "(declare-fun a () (_ FloatingPoint 8 24))\n"
         "(declare-fun b () Float32)\n"
         "(assert (fp.lt (fp.add RNE a b) (_ +oo 8 24)))\n"
         "(assert (not (fp.isNaN (fp.div RNE a b))))\n"
         "(assert (fp.eq a (fp #b0 #b01111111 #b00000000000000000000000)))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  // The fp literal is 1.0f.
  Term Last = R.Parsed.Assertions[2];
  Term Lit = M.child(Last, 1);
  EXPECT_EQ(M.kind(Lit), Kind::ConstFp);
  EXPECT_EQ(M.fpValue(Lit).toRational().toString(), "1");
}

TEST(ParserTest, RejectsUnsupportedRoundingMode) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun a () Float32)\n"
                          "(assert (fp.eq (fp.add RTZ a a) a))\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("RNE"), std::string::npos);
}

TEST(ParserTest, Diagnostics) {
  TermManager M;
  EXPECT_FALSE(parseSmtLib(M, "(assert (= x 1))").Ok); // Undeclared.
  EXPECT_FALSE(parseSmtLib(M, "(declare-fun f (Int) Int)").Ok); // Arity.
  EXPECT_FALSE(parseSmtLib(M, "(frobnicate)").Ok);
  EXPECT_FALSE(parseSmtLib(M, "(assert (= 1 true))").Ok); // Sort clash.
  EXPECT_FALSE(parseSmtLib(M, "(assert (and true").Ok);   // Unbalanced.
  auto R = parseSmtLib(M, "(declare-fun y () Int)\n(assert (= y unknown))");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 2"), std::string::npos);
}

// Width and index numerals beyond UINT_MAX are parse errors, never a
// throw out of the parser or a silently truncated width.

constexpr const char *Overlong = "99999999999999999999999";

void expectIndexOutOfRange(const std::string &Script) {
  TermManager M;
  ParseResult R = parseSmtLib(M, Script);
  EXPECT_FALSE(R.Ok) << Script;
  EXPECT_NE(R.Error.find("out of range"), std::string::npos) << R.Error;
}

TEST(ParserTest, OverlongBitVecSortWidthIsAnError) {
  expectIndexOutOfRange(std::string("(declare-fun x () (_ BitVec ") +
                        Overlong + "))");
  // One past UINT_MAX would otherwise truncate to a 0- or 1-bit sort.
  expectIndexOutOfRange("(declare-fun x () (_ BitVec 4294967296))");
  expectIndexOutOfRange("(declare-fun x () (_ BitVec 4294967297))");
}

TEST(ParserTest, OverlongFloatingPointSortWidthsAreErrors) {
  expectIndexOutOfRange(std::string("(declare-fun f () (_ FloatingPoint ") +
                        Overlong + " 24))");
  expectIndexOutOfRange(
      std::string("(declare-fun f () (_ FloatingPoint 8 ") + Overlong + "))");
}

TEST(ParserTest, OverlongBitVecLiteralWidthIsAnError) {
  expectIndexOutOfRange(std::string("(assert (= (_ bv5 ") + Overlong +
                        ") (_ bv5 8)))");
}

TEST(ParserTest, OverlongFloatingPointSpecialWidthsAreErrors) {
  expectIndexOutOfRange(std::string("(assert (fp.isNaN (_ NaN ") + Overlong +
                        " 24)))");
  expectIndexOutOfRange(std::string("(assert (fp.isNaN (_ +oo 8 ") +
                        Overlong + ")))");
}

TEST(ParserTest, OverlongOperatorIndexIsAnError) {
  expectIndexOutOfRange(
      std::string("(declare-fun x () (_ BitVec 8))(assert (= ((_ extract ") +
      Overlong + " 0) x) x))");
  expectIndexOutOfRange(
      std::string("(declare-fun x () (_ BitVec 8))"
                  "(assert (= ((_ zero_extend ") +
      Overlong + ") x) x))");
}

TEST(ParserTest, LargestIndexInRangeStillParses) {
  // UINT_MAX itself passes the range check.
  TermManager M;
  ParseResult R = parseSmtLib(M, "(declare-fun x () (_ BitVec 4294967295))");
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(ParserTest, AnnotationsPassThrough) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)\n"
                          "(assert (! (> x 3) :named a0))\n"
                          "(assert (! (< x 9) :weight 2 :other (nested 1)))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Parsed.Assertions.size(), 2u);
  EXPECT_EQ(M.kind(R.Parsed.Assertions[0]), Kind::Gt);
  EXPECT_EQ(M.kind(R.Parsed.Assertions[1]), Kind::Lt);
}

TEST(ParserTest, HexAndBinaryLiterals) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun v () (_ BitVec 8))\n"
                          "(assert (= v #xA5))\n"
                          "(assert (bvult v #b11111111))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  Term Lit = M.child(R.Parsed.Assertions[0], 1);
  EXPECT_EQ(M.bitVecValue(Lit).toUnsigned().toString(), "165");
  EXPECT_EQ(M.sort(Lit).bitVecWidth(), 8u);
}

TEST(PrinterTest, RoundTripThroughParser) {
  TermManager M1;
  const char *Input =
      "(set-logic QF_NIA)\n"
      "(declare-fun x () Int)\n"
      "(declare-fun y () Int)\n"
      "(assert (= (+ (* x x x) (* y y y)) 855))\n"
      "(assert (>= x (- 10)))\n"
      "(check-sat)\n";
  auto R1 = parseSmtLib(M1, Input);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  std::string Printed = printScript(M1, R1.Parsed);

  TermManager M2;
  auto R2 = parseSmtLib(M2, Printed);
  ASSERT_TRUE(R2.Ok) << R2.Error << "\n" << Printed;
  ASSERT_EQ(R2.Parsed.Assertions.size(), R1.Parsed.Assertions.size());
  // Structural identity after a second round trip.
  std::string Printed2 = printScript(M2, R2.Parsed);
  EXPECT_EQ(Printed, Printed2);
}

TEST(PrinterTest, SharingIntroducesLet) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Square = M.mkMul(std::vector<Term>{X, X});
  Term Sum = M.mkAdd(std::vector<Term>{Square, Square, Square});
  std::string Printed = printTermWithSharing(M, Sum);
  EXPECT_NE(Printed.find("let"), std::string::npos);
  // And it parses back to the same DAG shape.
  TermManager M2;
  auto R = parseSmtLib(M2, "(declare-fun x () Int)\n(assert (= 0 " + Printed +
                               "))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST(PrinterTest, LeafRendering) {
  TermManager M;
  EXPECT_EQ(printTerm(M, M.mkIntConst(BigInt(-5))), "(- 5)");
  EXPECT_EQ(printTerm(M, M.mkRealConst(Rational(BigInt(1), BigInt(4)))),
            "(/ 1.0 4.0)");
  EXPECT_EQ(printTerm(M, M.mkBitVecConst(BitVecValue(12, 855))),
            "(_ bv855 12)");
  EXPECT_EQ(printTerm(M, M.mkFpConst(SoftFloat::nan(FpFormat::float32()))),
            "(_ NaN 8 24)");
  Term One = M.mkFpConst(
      SoftFloat::fromRational(FpFormat::float32(), Rational(1)));
  EXPECT_EQ(printTerm(M, One), "(fp #b0 #b01111111 #b00000000000000000000000)");
}

TEST(PrinterTest, FpScriptRoundTrip) {
  TermManager M1;
  const char *Input = "(set-logic QF_FP)\n"
                      "(declare-fun a () (_ FloatingPoint 8 24))\n"
                      "(assert (fp.leq (fp.mul RNE a a) a))\n"
                      "(check-sat)\n";
  auto R1 = parseSmtLib(M1, Input);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  std::string Printed = printScript(M1, R1.Parsed);
  TermManager M2;
  auto R2 = parseSmtLib(M2, Printed);
  ASSERT_TRUE(R2.Ok) << R2.Error << "\n" << Printed;
}

} // namespace
