package repro.text

import java.util.Arrays

/** Levenshtein edit distances and the Levenshtein *ratio* used by CEAFF.
  *
  * The paper (§IV-C) measures string similarity between entity names with
  * the ratio `r(a,b) = (|a| + |b| - lev*(a,b)) / (|a| + |b|)`, where
  * `lev*` is the Levenshtein distance with substitution cost 2 (so a pure
  * substitution is as expensive as delete+insert, making r('a','c') = 0
  * rather than 0.5). With substitution cost 2 a substitution never beats a
  * deletion plus an insertion, so `lev*(a,b) = |a| + |b| - 2·LCS(a,b)`,
  * and `lev*` is computed from the LCS length by the bit-parallel
  * algorithm of Allison & Dix (IPL 1986) in Hyyrö's form ("Bit-parallel
  * LCS-length computation revisited", 2004): one 64-bit word per 64
  * characters of `a`, O(|b|·⌈|a|/64⌉) word operations. `lev` with unit
  * substitution cost is also provided, to cross-check against DuckDB's
  * built-in `levenshtein` in tests.
  */
object Levenshtein {

  /** Classic Levenshtein distance (insert = delete = substitute = 1):
    * a two-row dynamic program, O(|a|·|b|) time.
    */
  def lev(a0: String, b0: String): Int = {
    // Iterate over the longer string, keep rows sized by the shorter one.
    val (a, b) = if (a0.length >= b0.length) (a0, b0) else (b0, a0)
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var curr = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      curr(0) = i
      val ca = a.charAt(i - 1)
      var j = 1
      while (j <= b.length) {
        val sub = prev(j - 1) + (if (ca == b.charAt(j - 1)) 0 else 1)
        curr(j) = math.min(sub, math.min(prev(j), curr(j - 1)) + 1)
        j += 1
      }
      val tmp = prev; prev = curr; curr = tmp
      i += 1
    }
    prev(b.length)
  }

  /** Levenshtein distance with substitution cost 2 (paper's `lev*`). */
  def levStar(a: String, b: String): Int = a.length + b.length - 2 * lcs(masks(a), b)

  /** Levenshtein ratio in [0, 1]; 1 iff the strings are equal (or both
    * empty, which we define as ratio 1 since the names are identical).
    */
  def ratio(a: String, b: String): Double = ratio(masks(a), b)

  /** [[ratio]] of `a`'s masks and `b`: `|a| + |b| - lev*` is `2·LCS`. */
  def ratio(a: Masks, b: String): Double = {
    val total = a.text.length + b.length
    if (total == 0) 1.0
    else (2 * lcs(a, b)).toDouble / total
  }

  /** The bit-parallel match masks of `text`: for each distinct character
    * `c` (ascending in `chars`), the bit vector of the positions of `c` in
    * `text`, `words` 64-bit words per character, position `i` at bit
    * `i % 64` of word `i / 64`.
    */
  final class Masks(val text: String, val chars: Array[Char], val bits: Array[Long]) {
    val words: Int = (text.length + 63) >>> 6
  }

  /** `a`'s match masks, computed once for every string it is compared to. */
  def masks(a: String): Masks = {
    val chars = a.distinct.sorted.toCharArray
    val words = (a.length + 63) >>> 6
    val bits = new Array[Long](chars.length * words)
    a.indices.foreach(i => bits(Arrays.binarySearch(chars, a(i)) * words + (i >>> 6)) |= 1L << i)
    new Masks(a, chars, bits)
  }

  /** Length of the longest common subsequence of `a`'s text and `b`.
    *
    * `v` starts as all ones over `a`'s positions; each character of `b`
    * with match mask `m` updates it to `(v + (v & m)) | (v & ~m)`, the
    * addition carrying across words. The LCS length is the number of
    * zero bits among `a`'s positions at the end.
    */
  def lcs(a: Masks, b: String): Int = {
    val n = a.words
    if (n == 0) return 0
    val v = Array.fill(n)(-1L)
    var j = 0
    while (j < b.length) {
      val k = Arrays.binarySearch(a.chars, b.charAt(j))
      if (k >= 0) {
        val base = k * n
        var carry = 0L
        var w = 0
        while (w < n) {
          val x = v(w)
          val u = x & a.bits(base + w)
          val sum = x + u + carry
          // The unsigned carry out of x + u + carry.
          carry = if (java.lang.Long.compareUnsigned(sum, x) < 0 || (carry != 0 && sum == x)) 1L else 0L
          v(w) = sum | (x & ~u)
          w += 1
        }
      }
      j += 1
    }
    v(n - 1) &= -1L >>> (-a.text.length & 63) // a's positions only
    var ones = 0
    var w = 0
    while (w < n) { ones += java.lang.Long.bitCount(v(w)); w += 1 }
    a.text.length - ones
  }
}
