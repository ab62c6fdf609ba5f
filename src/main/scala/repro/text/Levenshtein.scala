package repro.text

/** Levenshtein edit distances and the Levenshtein *ratio* used by CEAFF.
  *
  * The paper (§IV-C) measures string similarity between entity names with
  * the ratio `r(a,b) = (|a| + |b| - lev*(a,b)) / (|a| + |b|)`, where
  * `lev*` is the Levenshtein distance with substitution cost 2 (so a pure
  * substitution is as expensive as delete+insert, making r('a','c') = 0
  * rather than 0.5). `lev` with unit substitution cost is also provided,
  * both as a reference and to cross-check against DuckDB's built-in
  * `levenshtein` in tests.
  */
object Levenshtein {

  /** Classic Levenshtein distance (insert = delete = substitute = 1). */
  def lev(a: String, b: String): Int = distance(a, b, substitutionCost = 1)

  /** Levenshtein distance with substitution cost 2 (paper's `lev*`).
    *
    * Equivalently `|a| + |b| - 2 * LCS(a, b)` — a property exercised by
    * the test suite.
    */
  def levStar(a: String, b: String): Int = distance(a, b, substitutionCost = 2)

  /** Levenshtein ratio in [0, 1]; 1 iff the strings are equal (or both
    * empty, which we define as ratio 1 since the names are identical).
    */
  def ratio(a: String, b: String): Double = {
    val total = a.length + b.length
    if (total == 0) 1.0
    else (total - levStar(a, b)).toDouble / total
  }

  /** Two-row dynamic program; O(|a|·|b|) time, O(min(|a|,|b|)) space. */
  private def distance(a0: String, b0: String, substitutionCost: Int): Int = {
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
        val sub = prev(j - 1) + (if (ca == b.charAt(j - 1)) 0 else substitutionCost)
        val del = prev(j) + 1
        val ins = curr(j - 1) + 1
        curr(j) = math.min(sub, math.min(del, ins))
        j += 1
      }
      val tmp = prev; prev = curr; curr = tmp
      i += 1
    }
    prev(b.length)
  }
}
