package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.kg.{BenchmarkGen, NameModel, Scenario}
import repro.text.HashVectors
import repro.{Fixtures, Oracle, SparkSpec}

class StructuralFeatureSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private lazy val b = BenchmarkGen
    .generate(spark, Scenario.Dbp100kWd, nGold = 150, nFringe = 50, seed = 7).cached()
  private lazy val ms = StructuralFeature.matrix(b).toDF(spark)

  test("embeddings cover every entity; norms are 1 (reached) or 0 (unreached)") {
    val (a1, _) = StructuralFeature.anchors(spark, b.seeds)
    val e = StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")),
      a1, side = 1)
    assert(e.count() == b.names1.count())
    val norms = e.select("vec").as[Seq[Double]].collect()
      .map(v => math.sqrt(v.map(x => x * x).sum))
    norms.foreach(n =>
      assert(math.abs(n - 1.0) < 1e-6 || n == 0.0, s"norm $n"))
    // on a dense KG with 30% seeds, nearly everything is reached
    val reached = norms.count(n => n > 0.5).toDouble / norms.length
    assert(reached > 0.9, s"only $reached of entities reached by anchors")
  }

  test("anchored seed entities keep their anchor vector after propagation") {
    val (a1, _) = StructuralFeature.anchors(spark, b.seeds)
    val e = StructuralFeature.embed(spark, b.triples1, b.names1.select(col("id")),
      a1, side = 1)
    val anchored = a1.select(col("id"), col("vec").as("anchor"))
      .join(e, Seq("id"))
      .as[(Long, Seq[Double], Seq[Double])]
      .collect()
    anchored.foreach { case (id, anchor, vec) =>
      assert(anchor == vec, s"seed $id drifted from its anchor")
    }
  }

  /** The propagation operator in SQL, `layers` rounds over `edges(src,
    * dst)`, `ids(id)` and `anchors(id, k, x)` (one row per anchor vector
    * component): distinct undirected neighbours with a self-loop per
    * entity, degrees over every triple endpoint, messages
    * `x_j / sqrt(d_i·d_j)` from the entities of the universe only, L2
    * normalisation, anchors re-imposed after each round.
    */
  private def propagationSql(dim: Int, layers: Int): String = {
    val rounds = (1 to layers).map { r =>
      s"""m$r AS (SELECT nb.i AS id, v.k, SUM(v.x / SQRT(di.d * dj.d)) AS x
         |  FROM nb JOIN u ON u.id = nb.i JOIN v${r - 1} v ON v.id = nb.j
         |  JOIN deg di ON di.i = nb.i JOIN deg dj ON dj.i = nb.j
         |  GROUP BY nb.i, v.k),
         |n$r AS (SELECT id, SQRT(SUM(x * x)) AS n FROM m$r GROUP BY id),
         |v$r AS (SELECT m.id, m.k,
         |  CASE WHEN a.x IS NOT NULL THEN a.x WHEN n.n = 0 THEN 0.0 ELSE m.x / n.n END AS x
         |  FROM m$r m JOIN n$r n ON n.id = m.id LEFT JOIN a ON a.id = m.id AND a.k = m.k)""".stripMargin
    }
    s"""WITH e AS (SELECT CAST(src AS BIGINT) AS s, CAST(dst AS BIGINT) AS d FROM edges),
       |u AS (SELECT DISTINCT CAST(id AS BIGINT) AS id FROM ids),
       |a AS (SELECT CAST(id AS BIGINT) AS id, CAST(k AS BIGINT) AS k, CAST(x AS DOUBLE) AS x FROM anchors),
       |nb AS (SELECT s AS i, d AS j FROM e UNION SELECT d, s FROM e UNION SELECT id, id FROM u),
       |deg AS (SELECT i, COUNT(*) AS d FROM nb GROUP BY i),
       |v0 AS (SELECT u.id, r.range AS k, COALESCE(a.x, 0.0) AS x
       |  FROM u CROSS JOIN range($dim) r LEFT JOIN a ON a.id = u.id AND a.k = r.range),
       |${rounds.mkString(",\n")}
       |SELECT id, k, x FROM v$layers""".stripMargin
  }

  test("oracle: embed agrees with DuckDB on random small graphs") {
    val dim = 4
    for (seed <- 1 to 3; layers <- 1 to 2) {
      val rnd = new scala.util.Random(seed)
      // Entities 0..11 are wired at random; 12 is isolated; 13-14 form a
      // component no anchor reaches; 99 is a triple endpoint outside the
      // universe.
      val ids = (0L to 14L)
      val triples = (Seq.fill(18)((rnd.nextInt(12).toLong, rnd.nextInt(12).toLong)) ++
        Seq(13L -> 14L, 99L -> rnd.nextInt(12).toLong, rnd.nextInt(12).toLong -> 99L))
        .map { case (s, d) => (s, 0L, d) }.toDF("src", "rel", "dst")
      val seeds = rnd.shuffle((0L until 12L).toList).take(3).map(u => (u, u + 100)).toDF("src", "dst")
      val (a1, _) = StructuralFeature.anchors(spark, seeds, dim)
      val e = StructuralFeature.embed(spark, triples, ids.toDF("id"), a1,
        side = 1, dim = dim, layers = layers)
      def components(v: DataFrame) =
        v.select(col("id"), posexplode(col("vec")).as(Seq("k", "x")))
      withClue(s"seed $seed, $layers layers: ") {
        Oracle.assertEquivalent(components(e), propagationSql(dim, layers),
          "edges" -> triples.select("src", "dst"), "ids" -> ids.toDF("id"),
          "anchors" -> components(a1))
      }
    }
  }

  /** [[StructuralFeature.propagate]] as a map from id to vector in every
    * round: each entity's messages scaled one by one and added with
    * `reduceLeft` in ascending sender id.
    */
  private def mapPropagate(edges: Iterable[(Long, Long)], ids: Iterable[Long],
                           anchored: EntityTables.Vectors, dim: Int, layers: Int): EntityTables.Vectors = {
    val neighbours: Map[Long, Array[Long]] =
      (edges.flatMap { case (s, d) => Seq(s -> d, d -> s) } ++ ids.map(id => id -> id))
        .groupMap(_._1)(_._2).map { case (i, ns) => i -> ns.toArray.distinct.sorted }
    def degree(i: Long): Long = neighbours(i).length.toLong
    val init = ids.map(id => id -> anchored.getOrElse(id, new Array[Double](dim))).toMap
    def round(emb: EntityTables.Vectors): EntityTables.Vectors = emb.map { case (i, _) =>
      i -> anchored.getOrElse(i, HashVectors.normalize(neighbours(i).iterator.filter(emb.contains)
        .map(j => HashVectors.scale(emb(j), 1.0 / math.sqrt((degree(j) * degree(i)).toDouble)))
        .reduceLeft(HashVectors.add)))
    }
    Iterator.iterate(init)(round).drop(layers).next()
  }

  test("propagate equals the map-based propagation bit for bit") {
    def bits(v: EntityTables.Vectors) = v.map { case (id, x) => id -> x.map(java.lang.Double.doubleToRawLongBits).toSeq }
    for (seed <- 1 to 4; layers <- 0 to 3) {
      val rnd = new scala.util.Random(seed)
      // 0..19 wired at random, with a self-edge and repeated edges; 20 is
      // isolated; 21-22 form a component no anchor reaches; 99 is an
      // edge endpoint with no name. Anchors may have negative components,
      // so messages can cancel to -0.0.
      val ids = (0L to 22L)
      val edges = Seq.fill(30)((rnd.nextInt(20).toLong, rnd.nextInt(20).toLong)) ++
        Seq(5L -> 5L, 1L -> 2L, 2L -> 1L, 21L -> 22L, 99L -> 3L, 4L -> 99L)
      val anchored = rnd.shuffle((0L until 20L).toList).take(5)
        .map(u => u -> HashVectors.unitGaussian(s"a:$seed:$u", 8)).toMap
      withClue(s"seed $seed, $layers layers: ") {
        assert(bits(StructuralFeature.propagate(edges, ids, anchored, 8, layers)) ==
          bits(mapPropagate(edges, ids, anchored, 8, layers)))
      }
    }
    // Two anchors with opposite and signed-zero components, whose messages
    // to 2 cancel.
    val opposite = Map(0L -> Array(1.0, -0.0), 1L -> Array(-1.0, 0.0))
    val cancel = Seq(0L -> 2L, 1L -> 2L)
    assert(bits(StructuralFeature.propagate(cancel, 0L to 2L, opposite, 2, 1)) ==
      bits(mapPropagate(cancel, 0L to 2L, opposite, 2, 1)))
  }

  test("the prepared jitter equals frac of the jitter key bit for bit") {
    val rnd = new scala.util.Random(11)
    val ids = Seq(0L, 1L, 9L, 10L, 99L, 100L, Long.MaxValue - 1, Long.MaxValue) ++
      Seq.fill(200)(rnd.nextLong() & Long.MaxValue) ++ Seq.fill(100)(rnd.nextInt(100000).toLong)
    for (s <- ids.take(40); d <- ids) {
      val h = StructuralFeature.jitterState(s)
      assert(java.lang.Double.doubleToRawLongBits(StructuralFeature.jitter(h, d)) ==
        java.lang.Double.doubleToRawLongBits(NameModel.frac(s"jitter:$s:$d")), s"($s, $d)")
    }
  }

  test("seed pairs share identical anchor vectors across the two KGs") {
    val (a1, a2) = StructuralFeature.anchors(spark, b.seeds)
    val paired = a1.select(col("id"), col("vec").as("v1"))
      .join(a2.select(col("id"), col("vec").as("v2")), Seq("id"))
      .as[(Long, Seq[Double], Seq[Double])].collect()
    assert(paired.nonEmpty)
    paired.foreach { case (id, v1, v2) => assert(v1 == v2, s"anchor mismatch for $id") }
  }

  test("the matrix spans exactly the test domain") {
    val nTest = b.test.count()
    assert(ms.count() == nTest * nTest)
    assert(ms.select("src").distinct().count() == nTest)
    assert(ms.select("dst").distinct().count() == nTest)
  }

  test("gold pairs score higher on average than mismatched pairs") {
    val diag = ms.filter(col("src") === col("dst")).agg(avg("score")).first().getDouble(0)
    val off = ms.filter(col("src") =!= col("dst")).agg(avg("score")).first().getDouble(0)
    assert(diag > off + 0.1, s"diag=$diag off=$off — no structural signal")
  }

  test("structure alone aligns a meaningful share of dense-KG entities") {
    val acc = Evaluation.accuracy(SimilarityMatrix.greedyMatch(ms), b.test)
    assert(acc > 0.2, s"accuracy $acc — structural feature is broken")
  }

  test("structural matrix is deterministic") {
    def bits(m: DataFrame) = cells(m).map { case (s, d, v) =>
      (s, d) -> java.lang.Double.doubleToRawLongBits(v) }.toMap
    assert(bits(StructuralFeature.matrix(b).toDF(spark)) == bits(ms))
  }

  test("more seeds (extraPairs) improve or maintain the structural signal") {
    // Promote half the test pairs to anchors — alignment of the rest
    // should not get worse.
    val extra = b.test.select("src", "dst").limit((b.test.count() / 2).toInt)
      .as[(Long, Long)].collect()
    val boosted = StructuralFeature.matrix(b, extraPairs = extra).toDF(spark)
    val remaining = b.test.join(extra.toSeq.toDF("src", "dst"), Seq("src", "dst"), "left_anti")
    val base = Evaluation.accuracy(SimilarityMatrix.greedyMatch(ms), remaining)
    val more = Evaluation.accuracy(SimilarityMatrix.greedyMatch(boosted), remaining)
    assert(more >= base - 0.05, s"extra anchors degraded accuracy: $base -> $more")
  }

  test("sparse KGs carry weaker structural signal than dense ones") {
    val sparse = BenchmarkGen
      .generate(spark, Scenario.SrprsWd, nGold = 150, nFringe = 50, seed = 7).cached()
    val msSparse = StructuralFeature.matrix(sparse).toDF(spark)
    val accDense = Evaluation.accuracy(SimilarityMatrix.greedyMatch(ms), b.test)
    val accSparse = Evaluation.accuracy(SimilarityMatrix.greedyMatch(msSparse), sparse.test)
    assert(accSparse < accDense + 0.05,
      s"sparse=$accSparse dense=$accDense — paper's density ordering violated")
  }
}
