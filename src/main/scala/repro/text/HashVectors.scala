package repro.text

import scala.util.Random

/** Deterministic, hash-seeded dense vectors.
  *
  * The synthetic benchmark needs reproducible "embeddings" that are a pure
  * function of a string key: two runs (and the driver vs any executor)
  * must agree bit-for-bit. Each vector is drawn from a Gaussian whose seed
  * is a 64-bit hash of the key, then L2-normalised.
  */
object HashVectors {

  /** FNV-1a 64-bit hash — stable across JVMs (unlike String.hashCode's
    * 32 bits, this gives us a full seed).
    */
  def hash64(s: String): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < s.length) { h = fnv(h, s.charAt(i)); i += 1 }
    h
  }

  /** FNV-1a state `h` continued over the decimal digits of `n >= 0`:
    * `hashDigits(hash64(k), n) == hash64(s"$k$n")`, without the string.
    */
  def hashDigits(h: Long, n: Long): Long = {
    require(n >= 0, s"negative id $n")
    var q = 1L // the largest power of ten <= n, or 1
    while (q <= n / 10) q *= 10
    var x = h
    var r = n
    while (q > 0) { x = fnv(x, ('0' + r / q).toChar); r %= q; q /= 10 }
    x
  }

  private def fnv(h: Long, c: Char): Long = (h ^ c) * 0x100000001b3L

  /** Deterministic unit Gaussian vector for `key`. */
  def unitGaussian(key: String, dim: Int): Array[Double] = {
    val rnd = new Random(hash64(key))
    normalize(Array.fill(dim)(rnd.nextGaussian()))
  }

  /** L2-normalise in place-free fashion; the zero vector is returned as-is. */
  def normalize(v: Array[Double]): Array[Double] = {
    val n = math.sqrt(dot(v, v))
    if (n == 0.0) v else v.map(_ / n)
  }

  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch: ${a.length} vs ${b.length}")
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** A vector with its L2 norm `sqrt(dot(v, v))`, computed once so that a
    * cosine takes one dot product.
    */
  final class Normed(val v: Array[Double]) {
    val norm: Double = math.sqrt(dot(v, v))
  }

  /** Cosine similarity; 0 when either vector is zero. */
  def cosine(a: Normed, b: Normed): Double =
    if (a.norm == 0.0 || b.norm == 0.0) 0.0 else dot(a.v, b.v) / (a.norm * b.norm)

  def add(a: Array[Double], b: Array[Double]): Array[Double] = {
    require(a.length == b.length)
    Array.tabulate(a.length)(i => a(i) + b(i))
  }

  def scale(a: Array[Double], k: Double): Array[Double] = a.map(_ * k)

  /** `a + σ·b`, then L2-normalised — used to model noisy multilingual
    * embedding alignment (concept direction plus language-specific noise).
    */
  def perturb(a: Array[Double], b: Array[Double], sigma: Double): Array[Double] =
    normalize(add(a, scale(b, sigma)))
}
