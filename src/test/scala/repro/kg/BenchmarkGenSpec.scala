package repro.kg

import org.apache.spark.JobCount
import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}

class BenchmarkGenSpec extends SparkSpec with Fixtures {
  import spark.implicits._

  private val NGold = 150L
  private val NFringe = 60L
  private lazy val mono = BenchmarkGen
    .generate(spark, Scenario.SrprsWd, NGold, NFringe, seed = 7).cached()
  private lazy val cross = BenchmarkGen
    .generate(spark, Scenario.Dbp15kZhEn, NGold, NFringe, seed = 7).cached()

  test("cached() holds every member on the driver, in collect order") {
    val g = BenchmarkGen.generate(spark, Scenario.SrprsEnFr, nGold = 60, nFringe = 20, seed = 3)
    val b = g.cached()
    def members(x: EaBenchmark) =
      Seq(x.triples1, x.triples2, x.names1, x.names2, x.dict1, x.dict2, x.seeds, x.test)
    val read = members(b).map(m => JobCount(spark.sparkContext)(m.collect().toSeq))
    assert(read.forall(_._2 == 0), s"Spark jobs per member: ${read.map(_._2)}")
    assert(EaBenchmark.pairs(b.seeds) == EaBenchmark.pairs(g.seeds))
    assert(EaBenchmark.pairs(b.test) == EaBenchmark.pairs(g.test))
    // The generator's plans without a shuffle give the same rows in the
    // same order; a dictionary is grouped by token, so compare it by token.
    Seq(0, 1, 2, 3).foreach(i => assert(read(i)._1 == members(g)(i).collect().toSeq, i))
    def dict(d: org.apache.spark.sql.DataFrame) =
      EaBenchmark.dictionary(d).map { case (t, v) => t -> v.toSeq }
    assert(dict(b.dict1) == dict(g.dict1) && dict(b.dict2) == dict(g.dict2))
  }

  test("seed/test split partitions the gold pairs") {
    val s = mono.seeds.select("src").as[Long].collect().toSet
    val t = mono.test.select("src").as[Long].collect().toSet
    assert(s.intersect(t).isEmpty)
    assert(s.union(t) == (0L until NGold).toSet)
  }

  test("seed fraction is near 30% (paper §VII-A)") {
    val frac = mono.seeds.count().toDouble / NGold
    assert(frac > 0.18 && frac < 0.42, s"seed fraction $frac")
  }

  test("gold pairs are the identity mapping") {
    assert(mono.seeds.filter(col("src") =!= col("dst")).count() == 0)
    assert(mono.test.filter(col("src") =!= col("dst")).count() == 0)
  }

  test("every entity of each KG is named, with tokens matching concepts") {
    for (names <- Seq(mono.names1, mono.names2)) {
      assert(names.filter(col("name").isNull || length(col("name")) === 0).count() == 0)
      assert(names.filter(size(col("tokens")) =!= size(col("concepts"))).count() == 0)
      assert(names.filter(size(col("tokens")) < 1 || size(col("tokens")) > 3).count() == 0)
    }
  }

  test("KG1 names gold + its own fringe; KG2 gold + the other fringe") {
    val ids1 = mono.names1.select("id").as[Long].collect().toSet
    val ids2 = mono.names2.select("id").as[Long].collect().toSet
    assert(ids1 == ((0L until NGold) ++ (NGold until NGold + NFringe)).toSet)
    assert(ids2 == ((0L until NGold) ++ (NGold + NFringe until NGold + 2 * NFringe)).toSet)
  }

  test("triples reference only entities of their own KG") {
    def endpoints(t: org.apache.spark.sql.DataFrame) =
      t.select(col("src").as("id")).union(t.select(col("dst").as("id")))
        .distinct().as[Long].collect().toSet
    val ids1 = mono.names1.select("id").as[Long].collect().toSet
    val ids2 = mono.names2.select("id").as[Long].collect().toSet
    assert(endpoints(mono.triples1).subsetOf(ids1))
    assert(endpoints(mono.triples2).subsetOf(ids2))
  }

  test("relation ids are within [0, 20)") {
    assert(mono.triples1.filter(col("rel") < 0 || col("rel") >= 20).count() == 0)
  }

  test("generation is deterministic in the seed") {
    val again = BenchmarkGen.generate(spark, Scenario.SrprsWd, NGold, NFringe, seed = 7)
    assert(again.triples1.except(mono.triples1).count() == 0)
    assert(mono.triples1.except(again.triples1).count() == 0)
    assert(again.names1.select("id", "name").except(mono.names1.select("id", "name")).count() == 0)
  }

  test("different seeds give different graphs") {
    val other = BenchmarkGen.generate(spark, Scenario.SrprsWd, NGold, NFringe, seed = 8)
    assert(other.triples1.except(mono.triples1).count() > 0)
  }

  test("the two KGs overlap but differ on gold-gold edges") {
    val g1 = mono.triples1.filter(col("src") < NGold && col("dst") < NGold)
    val g2 = mono.triples2.filter(col("src") < NGold && col("dst") < NGold)
    val shared = g1.intersect(g2).count()
    assert(shared > 0, "no shared edges — aligned neighbourhoods impossible")
    assert(g1.except(g2).count() > 0, "KG1 has no private edges")
    assert(g2.except(g1).count() > 0, "KG2 has no private edges")
  }

  test("dense scenarios have more triples than sparse at equal size") {
    val dense = BenchmarkGen.generate(spark, Scenario.Dbp100kWd, NGold, NFringe, seed = 7)
    assert(dense.triples1.count() > 2 * mono.triples1.count())
  }

  test("mono-lingual sides have nearly identical names for gold pairs") {
    val joined = mono.names1.select(col("id"), col("name").as("n1"))
      .join(mono.names2.select(col("id"), col("name").as("n2")), "id")
      .filter(col("id") < NGold)
      .as[(Long, String, String)].collect()
    val ratios = joined.map { case (_, a, b) => repro.text.Levenshtein.ratio(a, b) }
    assert(ratios.sum / ratios.length > 0.9, "mono-lingual names drifted too far")
  }

  test("distant-language sides share almost no name characters") {
    val joined = cross.names1.select(col("id"), col("name").as("n1"))
      .join(cross.names2.select(col("id"), col("name").as("n2")), "id")
      .filter(col("id") < NGold)
      .as[(Long, String, String)].collect()
    val ratios = joined.map { case (_, a, b) => repro.text.Levenshtein.ratio(a, b) }
    assert(ratios.sum / ratios.length < 0.1, "ZH-EN names unexpectedly similar")
  }

  test("dictionaries omit an OOV share of tokens") {
    val toks2 = cross.names2.select(explode(col("tokens")).as("token")).distinct()
    val inDict = toks2.join(cross.dict2, Seq("token")).count()
    val total = toks2.count()
    val coverage = inDict.toDouble / total
    assert(coverage > 0.8 && coverage < 1.0, s"en coverage $coverage")
    val toks1 = cross.names1.select(explode(col("tokens")).as("token")).distinct()
    val cov1 = cross.names1.select(explode(col("tokens")).as("token")).distinct()
      .join(cross.dict1, Seq("token")).count().toDouble / toks1.count()
    assert(cov1 < coverage, s"zh coverage $cov1 should be below en $coverage")
  }

  test("dictionary has one vector per token") {
    assert(mono.dict1.groupBy("token").count().filter(col("count") > 1).count() == 0)
  }

  test("dictionary vectors are unit-norm with the benchmark dimension") {
    val vecs = mono.dict1.select("vec").as[Seq[Double]].take(50)
    vecs.foreach { v =>
      assert(v.size == BenchmarkGen.Dim)
      assert(math.abs(math.sqrt(v.map(x => x * x).sum) - 1.0) < 1e-9)
    }
  }

  test("oracle: KG stats counts agree with DuckDB") {
    val counts = mono.triples1.agg(count(lit(1)).as("n_triples")).toDF()
    Oracle.assertEquivalent(counts,
      "SELECT count(*) AS n_triples FROM t1",
      "t1" -> mono.triples1)
  }

  test("KgStats reports consistent pair counts") {
    val st = KgStats.of(mono)
    assert(st.goldPairs == NGold)
    assert(st.seedPairs + st.testPairs == st.goldPairs)
    assert(st.triples1 == mono.triples1.count())
    assert(st.entities1 == NGold + NFringe)
    assert(st.entities2 == NGold + NFringe)
    assert(st.dataset == "SRPRS_DBP-WD")
  }
}
