package repro.text

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** Pure-function tests for [[Levenshtein]] plus ScalaCheck law tests.
  * DuckDB's built-in `levenshtein` serves as an oracle in
  * [[repro.core.StringFeatureSpec]] (Spark-side).
  */
class LevenshteinSpec extends AnyFunSuite {

  private def check(p: Prop, min: Int = 200): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), p)
    assert(res.passed, res.status.toString)
  }

  private val word: Gen[String] = for {
    n <- Gen.choose(0, 12)
    cs <- Gen.listOfN(n, Gen.oneOf(('a' to 'e') ++ Seq('木', '水')))
  } yield cs.mkString

  // ---- hand-computed cases -------------------------------------------

  test("lev of identical strings is 0") { assert(Levenshtein.lev("kitten", "kitten") == 0) }
  test("lev kitten/sitting is 3") { assert(Levenshtein.lev("kitten", "sitting") == 3) }
  test("lev flaw/lawn is 2") { assert(Levenshtein.lev("flaw", "lawn") == 2) }
  test("lev vs empty is length") {
    assert(Levenshtein.lev("", "abc") == 3)
    assert(Levenshtein.lev("abc", "") == 3)
    assert(Levenshtein.lev("", "") == 0)
  }
  test("lev single substitution is 1") { assert(Levenshtein.lev("a", "c") == 1) }

  test("levStar single substitution costs 2") { assert(Levenshtein.levStar("a", "c") == 2) }
  test("levStar kitten/sitting is 5") {
    // 2 substitutions (k→s, e→i) at cost 2 each + 1 insertion
    assert(Levenshtein.levStar("kitten", "sitting") == 5)
  }
  test("levStar equals lev when only indels are needed") {
    assert(Levenshtein.levStar("abc", "abcd") == 1)
    assert(Levenshtein.levStar("abc", "ac") == 1)
  }

  test("paper example: ratio('a','c') is 0 under lev*, not 0.5") {
    assert(Levenshtein.ratio("a", "c") == 0.0)
    // under unit-cost lev it would have been (1+1-1)/2 = 0.5 — the
    // motivation given in §IV-C for the cost-2 substitution
    assert((1 + 1 - Levenshtein.lev("a", "c")).toDouble / 2 == 0.5)
  }
  test("ratio of identical strings is 1") {
    assert(Levenshtein.ratio("abc def", "abc def") == 1.0)
  }
  test("ratio of both-empty strings is 1") { assert(Levenshtein.ratio("", "") == 1.0) }
  test("ratio vs empty string is 0") { assert(Levenshtein.ratio("abc", "") == 0.0) }
  test("ratio underscore vs space formatting stays high") {
    assert(Levenshtein.ratio("abc def", "abc_def") > 0.85)
  }
  test("ratio of disjoint alphabets is 0") {
    assert(Levenshtein.ratio("abcd", "木水木水") == 0.0)
  }

  // ---- laws -----------------------------------------------------------

  test("lev is symmetric") {
    check(Prop.forAll(word, word)((a, b) => Levenshtein.lev(a, b) == Levenshtein.lev(b, a)))
  }
  test("levStar is symmetric") {
    check(Prop.forAll(word, word)((a, b) =>
      Levenshtein.levStar(a, b) == Levenshtein.levStar(b, a)))
  }
  test("lev is zero iff strings equal") {
    check(Prop.forAll(word, word)((a, b) => (Levenshtein.lev(a, b) == 0) == (a == b)))
  }
  test("lev satisfies the triangle inequality") {
    check(Prop.forAll(word, word, word)((a, b, c) =>
      Levenshtein.lev(a, c) <= Levenshtein.lev(a, b) + Levenshtein.lev(b, c)))
  }
  test("lev bounded by max length, lower-bounded by length difference") {
    check(Prop.forAll(word, word) { (a, b) =>
      val d = Levenshtein.lev(a, b)
      d <= math.max(a.length, b.length) && d >= math.abs(a.length - b.length)
    })
  }
  test("lev <= levStar <= 2*lev") {
    check(Prop.forAll(word, word) { (a, b) =>
      val d = Levenshtein.lev(a, b); val d2 = Levenshtein.levStar(a, b)
      d <= d2 && d2 <= 2 * d
    })
  }
  test("levStar equals |a|+|b|-2*LCS(a,b)") {
    def lcs(a: String, b: String): Int = {
      val dp = Array.ofDim[Int](a.length + 1, b.length + 1)
      for (i <- 1 to a.length; j <- 1 to b.length)
        dp(i)(j) =
          if (a(i - 1) == b(j - 1)) dp(i - 1)(j - 1) + 1
          else math.max(dp(i - 1)(j), dp(i)(j - 1))
      dp(a.length)(b.length)
    }
    check(Prop.forAll(word, word)((a, b) =>
      Levenshtein.levStar(a, b) == a.length + b.length - 2 * lcs(a, b)))
  }
  test("ratio is within [0,1] and symmetric") {
    check(Prop.forAll(word, word) { (a, b) =>
      val r = Levenshtein.ratio(a, b)
      r >= 0.0 && r <= 1.0 && r == Levenshtein.ratio(b, a)
    })
  }
  test("ratio is 1 exactly for equal strings") {
    check(Prop.forAll(word, word)((a, b) => (Levenshtein.ratio(a, b) == 1.0) == (a == b)))
  }

  test("lev matches a naive recursive reference on short strings") {
    def naive(a: String, b: String, i: Int, j: Int): Int =
      if (math.min(i, j) == 0) math.max(i, j)
      else Seq(
        naive(a, b, i - 1, j) + 1,
        naive(a, b, i, j - 1) + 1,
        naive(a, b, i - 1, j - 1) + (if (a(i - 1) == b(j - 1)) 0 else 1)).min
    val short = Gen.listOfN(5, Gen.oneOf('a', 'b', 'c')).map(_.mkString)
    check(Prop.forAll(short, short)((a, b) =>
      Levenshtein.lev(a, b) == naive(a, b, a.length, b.length)), min = 100)
  }
}
