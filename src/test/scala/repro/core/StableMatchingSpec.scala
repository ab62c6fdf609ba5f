package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Fixtures, SparkSpec}

class StableMatchingSpec extends SparkSpec with Fixtures {

  private def check(p: Prop, min: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), p)
    assert(res.passed, res.status.toString)
  }

  /** Random square matrix with all-distinct scores (strict preferences). */
  private val squareCells: Gen[Seq[(Long, Long, Double)]] = for {
    n <- Gen.choose(1, 8)
    perm <- Gen.const(scala.util.Random.shuffle((1 to n * n).toList))
  } yield {
    val it = perm.iterator
    for (i <- 0 until n; j <- 0 until n)
      yield (i.toLong, j.toLong, it.next().toDouble / (n * n))
  }

  // ---- paper worked examples -----------------------------------------

  test("Figure 4: DAA rounds produce (u1,v1),(u2,v2),(u3,v3)") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.6), (0L, 2L, 0.5),
      (1L, 0L, 0.8), (1L, 1L, 0.7), (1L, 2L, 0.1),
      (2L, 0L, 0.4), (2L, 1L, 0.6), (2L, 2L, 0.3))
    val expected = Map(0L -> 0L, 1L -> 1L, 2L -> 2L)
    assert(StableMatching.referenceDaa(m) == expected)
    assert(matchMap(StableMatching.daa(spark, mat(m))) == expected)
  }

  test("Figure 1: independent decisions mismatch, collective decisions recover") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.3), (0L, 2L, 0.2),
      (1L, 0L, 0.85), (1L, 1L, 0.8), (1L, 2L, 0.3),
      (2L, 0L, 0.2), (2L, 1L, 0.7), (2L, 2L, 0.65))
    val indep = matchMap(SimilarityMatrix.greedyMatch(mat(m)))
    assert(indep == Map(0L -> 0L, 1L -> 0L, 2L -> 1L)) // two mismatches
    val coll = matchMap(StableMatching.daa(spark, mat(m)))
    assert(coll == Map(0L -> 0L, 1L -> 1L, 2L -> 2L)) // all correct
  }

  // ---- reference implementation laws ----------------------------------

  test("reference DAA yields a perfect matching on square instances") {
    check(Prop.forAll(squareCells) { cells =>
      val n = cells.map(_._1).distinct.size
      val m = StableMatching.referenceDaa(cells)
      m.size == n && m.values.toSet.size == n
    })
  }

  test("reference DAA matchings have no blocking pairs (stability)") {
    check(Prop.forAll(squareCells) { cells =>
      StableMatching.blockingPairs(cells, StableMatching.referenceDaa(cells)).isEmpty
    })
  }

  test("blockingPairs detects an unstable (swapped) matching") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.3),
      (1L, 0L, 0.85), (1L, 1L, 0.8))
    // Valid but unstable: (0,0) blocks — src 0 prefers dst 0 (0.9 > 0.3)
    // and dst 0 prefers src 0 (0.9 > 0.85).
    assert(StableMatching.blockingPairs(m, Map(0L -> 1L, 1L -> 0L)) == Seq((0L, 0L)))
  }

  test("blockingPairs is empty for the unique stable matching of a diagonal-dominant matrix") {
    val m = Seq(
      (0L, 0L, 0.9), (0L, 1L, 0.1),
      (1L, 0L, 0.2), (1L, 1L, 0.8))
    assert(StableMatching.blockingPairs(m, Map(0L -> 0L, 1L -> 1L)).isEmpty)
    assert(StableMatching.blockingPairs(m, Map(0L -> 1L, 1L -> 0L)).nonEmpty)
  }

  test("reference DAA is source-optimal: every source gets its best stable partner") {
    // With strict preferences the Gale-Shapley outcome is the unique
    // source-optimal stable matching; on a matrix where the diagonal is
    // each source's top choice and targets agree, it must be the diagonal.
    val m = for (i <- 0L until 5L; j <- 0L until 5L)
      yield (i, j, if (i == j) 1.0 else 0.1 / (1 + i + j))
    assert(StableMatching.referenceDaa(m) == (0L until 5L).map(i => i -> i).toMap)
  }

  test("reference DAA handles more targets than sources") {
    val m = Seq(
      (0L, 0L, 0.5), (0L, 1L, 0.9), (0L, 2L, 0.1),
      (1L, 0L, 0.6), (1L, 1L, 0.95), (1L, 2L, 0.2))
    val got = StableMatching.referenceDaa(m)
    assert(got == Map(1L -> 1L, 0L -> 0L)) // 1 wins target 1, 0 falls back
  }

  // ---- distributed implementation -------------------------------------

  test("distributed DAA equals the reference on random instances") {
    // Square, wide (#src < #dst) and tall (#src > #dst) instances, each
    // with distinct scores and with scores drawn from three values (heavy
    // ties). Every instance is matched at 1 and at 8 input partitions: the
    // matching must not depend on partitioning.
    val rnd = new scala.util.Random(4)
    for (trial <- 0 until 12) {
      val n = 2 + rnd.nextInt(9)
      val (nSrc, nDst) = trial % 3 match {
        case 0 => (n, n)
        case 1 => (n, n + 1 + rnd.nextInt(4))
        case _ => (n + 1 + rnd.nextInt(4), n)
      }
      val tied = trial % 2 == 1
      val it = rnd.shuffle((1 to nSrc * nDst).toList).iterator
      val cellSeq = for (i <- 0 until nSrc; j <- 0 until nDst) yield {
        val k = it.next()
        (i.toLong, j.toLong, if (tied) (k % 3 + 1) / 3.0 else k.toDouble / (nSrc * nDst))
      }
      val expected = StableMatching.referenceDaa(cellSeq)
      assert(expected.size == math.min(nSrc, nDst))
      for (parts <- Seq(1, 8)) {
        val got = matchMap(StableMatching.daa(spark, mat(cellSeq).repartition(parts)))
        assert(got == expected,
          s"trial $trial (${nSrc}x$nDst, tied=$tied, $parts partitions): $got vs $expected")
      }
    }
  }

  test("distributed DAA equals the reference under score ties") {
    val tied = Seq(
      (0L, 0L, 0.5), (0L, 1L, 0.5),
      (1L, 0L, 0.5), (1L, 1L, 0.5))
    val expected = StableMatching.referenceDaa(tied)
    assert(expected == Map(0L -> 0L, 1L -> 1L)) // id tie-breaks both sides
    assert(matchMap(StableMatching.daa(spark, mat(tied))) == expected)
  }

  test("distributed DAA leaves the surplus sources of a tall tied matrix unmatched") {
    // 3 sources, 2 targets, all cells tied: the id tie-break matches
    // (0,0) and (1,1), and source 2 stays unmatched.
    val tied = for (i <- 0L until 3L; j <- 0L until 2L) yield (i, j, 0.5)
    assert(StableMatching.referenceDaa(tied) == Map(0L -> 0L, 1L -> 1L))
    assert(matchMap(StableMatching.daa(spark, mat(tied))) == Map(0L -> 0L, 1L -> 1L))
  }

  test("distributed DAA orders -0.0 and 0.0 as equal") {
    // With -0.0 below 0.0, (0,1) and (1,0) would come first.
    val m = Seq((0L, 0L, -0.0), (0L, 1L, 0.0), (1L, 0L, 0.0), (1L, 1L, -0.0))
    assert(matchMap(StableMatching.daa(spark, mat(m))) == Map(0L -> 0L, 1L -> 1L))
  }

  test("distributed DAA on a larger instance is perfect and stable") {
    val rnd = new scala.util.Random(11)
    val n = 40
    val perm = rnd.shuffle((1 to n * n).toList)
    val it = perm.iterator
    val cellSeq = for (i <- 0 until n; j <- 0 until n)
      yield (i.toLong, j.toLong, it.next().toDouble / (n * n))
    val got = matchMap(StableMatching.daa(spark, mat(cellSeq)))
    assert(got.size == n && got.values.toSet.size == n)
    assert(StableMatching.blockingPairs(cellSeq, got).isEmpty)
  }

  test("distributed DAA rejects an incomplete matrix at the input") {
    // Cell (1,1) of the grid {0,1} x {0,1} is missing, so src 1 and dst 1
    // would have no cell left after (0,0) is matched: LocalMatrix.of
    // rejects the matrix before any matching starts.
    val m = Seq((0L, 0L, 0.9), (1L, 0L, 0.8), (0L, 1L, 0.1))
    intercept[IllegalArgumentException](StableMatching.daa(spark, mat(m)))
  }

  test("distributed DAA matches a 1x1 instance") {
    assert(matchMap(StableMatching.daa(spark, mat(Seq((7L, 3L, 0.2))))) == Map(7L -> 3L))
  }
}
