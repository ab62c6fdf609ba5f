package repro.text

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class HashVectorsSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  private val key: Gen[String] = Gen.alphaNumStr.map(_.take(20))
  private val vec: Gen[Array[Double]] =
    Gen.listOfN(8, Gen.choose(-5.0, 5.0)).map(_.toArray)

  /** The cosine of two plain vectors, through their normed forms. */
  private def cosine(a: Array[Double], b: Array[Double]): Double =
    HashVectors.cosine(new HashVectors.Normed(a), new HashVectors.Normed(b))

  test("hash64 is deterministic and key-sensitive") {
    assert(HashVectors.hash64("abc") == HashVectors.hash64("abc"))
    assert(HashVectors.hash64("abc") != HashVectors.hash64("abd"))
    assert(HashVectors.hash64("") != HashVectors.hash64("a"))
  }

  test("hash64 matches known FNV-1a values") {
    // FNV-1a 64-bit of empty string is the offset basis.
    assert(HashVectors.hash64("") == 0xcbf29ce484222325L)
  }

  test("hashDigits continues FNV-1a over the decimal digits of any non-negative long") {
    val extremes = Gen.oneOf(0L, 1L, 9L, 10L, 999999999999999999L, 1000000000000000000L, Long.MaxValue)
    check(Prop.forAll(key, Gen.oneOf(Gen.choose(0L, Long.MaxValue), Gen.choose(0L, 100000L), extremes)) { (k, n) =>
      val h = HashVectors.hash64(k)
      HashVectors.hashDigits(h, n) == HashVectors.hash64(s"$k$n")
    })
  }

  test("unitGaussian is deterministic in the key") {
    val a = HashVectors.unitGaussian("k1", 16)
    val b = HashVectors.unitGaussian("k1", 16)
    assert(a.sameElements(b))
  }

  test("unitGaussian differs across keys") {
    val a = HashVectors.unitGaussian("k1", 16)
    val b = HashVectors.unitGaussian("k2", 16)
    assert(!a.sameElements(b))
  }

  test("unitGaussian has unit L2 norm") {
    check(Prop.forAll(key) { k =>
      val v = HashVectors.unitGaussian(s"x$k", 16)
      math.abs(math.sqrt(HashVectors.dot(v, v)) - 1.0) < 1e-9
    })
  }

  test("normalize produces unit vectors; zero vector is preserved") {
    check(Prop.forAll(vec) { v =>
      val n = HashVectors.normalize(v)
      val norm = math.sqrt(HashVectors.dot(n, n))
      if (v.forall(_ == 0.0)) n.forall(_ == 0.0) else math.abs(norm - 1.0) < 1e-9
    })
  }

  test("cosine is 1 for a vector with itself, -1 with its negation") {
    check(Prop.forAll(vec.suchThat(_.exists(_ != 0.0))) { v =>
      math.abs(cosine(v, v) - 1.0) < 1e-9 &&
      math.abs(cosine(v, v.map(-_)) + 1.0) < 1e-9
    })
  }

  test("cosine is bounded by [-1,1] and symmetric") {
    check(Prop.forAll(vec, vec) { (a, b) =>
      val c = cosine(a, b)
      c >= -1.0 - 1e-9 && c <= 1.0 + 1e-9 &&
      math.abs(c - cosine(b, a)) < 1e-12
    })
  }

  test("cosine with the zero vector is 0") {
    val z = new Array[Double](8)
    assert(cosine(z, Array.fill(8)(1.0)) == 0.0)
  }

  test("cosine is scale-invariant") {
    check(Prop.forAll(vec.suchThat(_.exists(_ != 0.0)), Gen.choose(0.1, 10.0)) { (v, k) =>
      math.abs(cosine(v, HashVectors.scale(v, k)) - 1.0) < 1e-9
    })
  }

  test("add and scale behave componentwise") {
    val a = Array(1.0, 2.0); val b = Array(3.0, -1.0)
    assert(HashVectors.add(a, b).sameElements(Array(4.0, 1.0)))
    assert(HashVectors.scale(a, 2.0).sameElements(Array(2.0, 4.0)))
  }

  test("dot rejects mismatched dimensions") {
    intercept[IllegalArgumentException] {
      HashVectors.dot(Array(1.0), Array(1.0, 2.0))
    }
  }

  test("perturb with sigma 0 returns the normalised base direction") {
    val a = HashVectors.unitGaussian("a", 8)
    val p = HashVectors.perturb(a, HashVectors.unitGaussian("b", 8), 0.0)
    assert(cosine(a, p) > 1.0 - 1e-9)
  }

  test("perturb drifts monotonically with sigma") {
    val a = HashVectors.unitGaussian("base", 32)
    val noise = HashVectors.unitGaussian("noise", 32)
    val sims = Seq(0.1, 0.5, 1.0, 2.0).map(s => cosine(a, HashVectors.perturb(a, noise, s)))
    assert(sims == sims.sorted.reverse, s"not monotone: $sims")
    assert(sims.head > 0.95 && sims.last < 0.8)
  }
}
