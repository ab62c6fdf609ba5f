package ceaffbench

import repro.core.StableMatching

/** A matching a pass produced, collected to the driver.
  *
  * @param collective DAA output: must be one-to-one and cover
  *                   min(#src, #dst). Otherwise an independent row-argmax
  *                   decision: exactly one target per test source, several
  *                   sources may share a target.
  */
final case class Matching(name: String, pairs: Seq[(Long, Long)], collective: Boolean)

/** Correctness checks run on every pass, outside the timer. Each returns
  * the problems found; an empty result means the check passed.
  */
object Checks {

  def matching(m: Matching, testSrc: Set[Long], testDst: Set[Long]): Seq[String] = {
    val srcs = m.pairs.map(_._1)
    val dsts = m.pairs.map(_._2)
    def dup(xs: Seq[Long]): Seq[Long] = xs.groupBy(identity).collect { case (x, g) if g.size > 1 => x }.toSeq.sorted
    val out = Seq.newBuilder[String]
    val dupSrc = dup(srcs)
    if (dupSrc.nonEmpty) out += s"${m.name}: sources matched twice: ${dupSrc.take(5).mkString(",")}"
    if (!srcs.forall(testSrc)) out += s"${m.name}: source outside the test domain"
    if (!dsts.forall(testDst)) out += s"${m.name}: target outside the test domain"
    if (m.collective) {
      val dupDst = dup(dsts)
      if (dupDst.nonEmpty) out += s"${m.name}: targets matched twice: ${dupDst.take(5).mkString(",")}"
      val want = math.min(testSrc.size, testDst.size)
      if (m.pairs.size != want) out += s"${m.name}: ${m.pairs.size} pairs, expected $want"
    } else if (srcs.toSet != testSrc) {
      out += s"${m.name}: covers ${srcs.toSet.size} of ${testSrc.size} test sources"
    }
    out.result()
  }

  /** A DAA matching against the sequential oracle on the same cells. */
  def stable(name: String, cells: Seq[(Long, Long, Double)], got: Seq[(Long, Long)]): Seq[String] = {
    val gotMap = got.toMap
    val ref = StableMatching.referenceDaa(cells)
    val differ = (ref.keySet ++ gotMap.keySet).count(s => ref.get(s) != gotMap.get(s))
    val blocking = StableMatching.blockingPairs(cells, gotMap)
    (if (differ > 0) Seq(s"$name: differs from referenceDaa at $differ sources") else Nil) ++
    (if (blocking.nonEmpty) Seq(s"$name: ${blocking.size} blocking pairs, e.g. ${blocking.head}") else Nil)
  }

  /** Accuracy, Hits@10 and MRR are fractions. */
  def fractions(values: Map[String, Double]): Seq[String] =
    values.toSeq.sortBy(_._1).collect {
      case (k, v) if !(v >= 0.0 && v <= 1.0) => s"$k = $v is not in [0, 1]"
    }

  /** Every pass must reproduce the first pass's quality figures exactly. */
  def sameAsFirst(first: Map[String, Double], now: Map[String, Double]): Seq[String] =
    (first.keySet ++ now.keySet).toSeq.sorted.collect {
      case k if first.get(k) != now.get(k) => s"$k = ${now.get(k)} but the first pass had ${first.get(k)}"
    }
}
