package repro.kg

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.text.HashVectors
import scala.jdk.CollectionConverters._

/** One KG triple `(src) --rel--> (dst)`. */
final case class Triple(src: Long, rel: Long, dst: Long)

/** A named entity: surface `name`, its `tokens`, and the latent word
  * `concepts` the tokens were rendered from (kept only so the embedding
  * dictionary can be built; features never read concepts).
  */
final case class EntityName(id: Long, name: String, tokens: Seq[String], concepts: Seq[Long])

/** Gold alignment pair (src in KG1, dst in KG2). */
final case class GoldPair(src: Long, dst: Long)

/** Word-embedding dictionary entry for one side's language. */
final case class DictEntry(token: String, vec: Array[Double])

/** An entity's name as the features read it: the surface form and its
  * tokens.
  */
final case class Label(text: String, tokens: Seq[String])

/** A generated EA benchmark: two KGs, names, embedding dictionaries and
  * the seed/test split of the gold alignment (30% seeds, paper §VII-A).
  *
  * Every table also has a driver copy, which the pipeline reads instead of
  * the table. Each copy is collected on its first read, by one reader of
  * the companion, and kept; `copy` gives a benchmark whose copies are read
  * afresh. After [[cached]] every table is itself held on the driver, so
  * those reads start no Spark job.
  */
final case class EaBenchmark(
    scenario: Scenario,
    nGold: Long,
    triples1: DataFrame, triples2: DataFrame, // (src, rel, dst)
    names1: DataFrame, names2: DataFrame,     // (id, name, tokens, concepts)
    dict1: DataFrame, dict2: DataFrame,       // (token, vec)
    seeds: DataFrame,                         // (src, dst)
    test: DataFrame) {                        // (src, dst)
  import EaBenchmark._

  lazy val edges1: Seq[(Long, Long)] = edges(triples1)
  lazy val edges2: Seq[(Long, Long)] = edges(triples2)
  lazy val labels1: Map[Long, Label] = labels(names1)
  lazy val labels2: Map[Long, Label] = labels(names2)
  lazy val dictionary1: Map[String, Array[Double]] = dictionary(dict1)
  lazy val dictionary2: Map[String, Array[Double]] = dictionary(dict2)
  /** The seed pairs in their collect order, which LR's gradient sums follow. */
  lazy val seedPairs: Seq[(Long, Long)] = pairs(seeds)
  lazy val testPairs: Seq[(Long, Long)] = pairs(test)

  /** The benchmark with every member held on the driver: each table is
    * collected once and rebuilt as a local relation in collect order, so
    * `seedPairs` and every other driver copy keep their order. Nothing is
    * cached in Spark, so there is nothing to release.
    */
  def cached(): EaBenchmark = copy(
    triples1 = local(triples1), triples2 = local(triples2),
    names1 = local(names1), names2 = local(names2),
    dict1 = local(dict1), dict2 = local(dict2),
    seeds = local(seeds), test = local(test))
}

/** The readers of a benchmark's tables: each collects one table to the
  * driver, with one Spark job unless the table is already held there.
  */
object EaBenchmark {

  /** `df` collected once and rebuilt as a local relation, rows in collect
    * order.
    */
  private def local(df: DataFrame): DataFrame =
    df.sparkSession.createDataFrame(df.collect().toSeq.asJava, df.schema)

  /** A KG's triples `(src, rel, dst)` as edges `(src, dst)`. */
  def edges(triples: DataFrame): Seq[(Long, Long)] = {
    import triples.sparkSession.implicits._
    triples.select(col("src"), col("dst")).as[(Long, Long)].collect().toSeq
  }

  /** A names table `(id, name, tokens, ...)`, by id. */
  def labels(names: DataFrame): Map[Long, Label] = {
    import names.sparkSession.implicits._
    names.select(col("id"), col("name"), col("tokens")).as[(Long, String, Seq[String])].collect()
      .map { case (id, n, t) => id -> Label(n, t) }.toMap
  }

  /** A dictionary `(token, vec)`, by token. */
  def dictionary(dict: DataFrame): Map[String, Array[Double]] = {
    import dict.sparkSession.implicits._
    dict.select(col("token"), col("vec")).as[(String, Seq[Double])].collect()
      .map { case (t, v) => t -> v.toArray }.toMap
  }

  /** Alignment pairs `(src, dst)` — seed, test or gold pairs, or a
    * matching — in collect order.
    */
  def pairs(df: DataFrame): Seq[(Long, Long)] = {
    import df.sparkSession.implicits._
    df.select(col("src"), col("dst")).as[(Long, Long)].collect().toSeq
  }
}

/** Synthetic EA benchmark generator (substitute for DBP15K / DBP100K /
  * SRPRS; see DESIGN.md §2).
  *
  * A hidden world graph over `nGold + 2·nFringe` entities is sampled
  * deterministically in `seed`; KG1 and KG2 are independent edge
  * subsamples over the gold entities plus each side's private fringe
  * entities, so aligned entities have overlapping-but-different
  * neighbourhoods. Names and embedding dictionaries follow the scenario's
  * language specs.
  */
object BenchmarkGen {

  /** Word-embedding dimensionality (paper uses 300-d fastText; 32 is
    * ample for the synthetic concept space and keeps cross-joins cheap).
    */
  val Dim = 32

  private val NRel = 20
  private val SeedFraction = 0.3

  def generate(spark: SparkSession, scenario: Scenario,
               nGold: Long, nFringe: Long, seed: Long = 7): EaBenchmark = {
    import spark.implicits._
    require(nGold >= 10, s"nGold=$nGold too small for a meaningful split")

    val f1lo = nGold; val f1hi = nGold + nFringe       // fringe of KG1
    val f2lo = f1hi;  val f2hi = f1hi + nFringe        // fringe of KG2
    val dense = scenario.dense

    // --- structure ------------------------------------------------------
    def goldTriples(side: Int): DataFrame =
      spark.range(nGold).as[Long].flatMap { i =>
        (0 until NameModel.degree(i, dense, seed)).iterator.flatMap { k =>
          val j = NameModel.target(i, k, nGold, seed)
          if (NameModel.keptIn(i, j, side, seed))
            Some(Triple(i, NameModel.relation(i, j, NRel, seed), j))
          else None
        }
      }.toDF()

    def fringeTriples(lo: Long, hi: Long): DataFrame =
      spark.range(lo, hi).as[Long].flatMap { i =>
        (0 until NameModel.degree(i, dense, seed + 1)).iterator.map { k =>
          // Targets live in gold ∪ own fringe: draw from a contiguous
          // range of that size, then shift ids past nGold into the fringe.
          val t0 = NameModel.target(i - lo, k, nGold + (hi - lo), seed + 13 + lo)
          val j = if (t0 < nGold) t0 else t0 - nGold + lo
          Triple(i, NameModel.relation(i, j, NRel, seed), j)
        }
      }.toDF()

    val triples1 = goldTriples(1).union(fringeTriples(f1lo, f1hi))
    val triples2 = goldTriples(2).union(fringeTriples(f2lo, f2hi))

    // --- names ----------------------------------------------------------
    def names(ids: DataFrame, lang: LangSpec): DataFrame =
      ids.as[Long].map { i =>
        val cs = NameModel.concepts(i, nGold, seed)
        val toks = cs.map(c => NameModel.render(c, lang.code))
        EntityName(i, NameModel.assemble(toks, lang.code), toks, cs)
      }.toDF()

    val ids1 = spark.range(nGold).toDF("id").union(spark.range(f1lo, f1hi).toDF("id"))
    val ids2 = spark.range(nGold).toDF("id").union(spark.range(f2lo, f2hi).toDF("id"))
    val names1 = names(ids1, scenario.lang1)
    val names2 = names(ids2, scenario.lang2)

    // --- embedding dictionary ------------------------------------------
    // A token can render from several concepts (popular-pool reuse); real
    // dictionaries have one vector per token, so each token keeps the
    // vector of its smallest concept, whatever the partitioning.
    def dict(nm: DataFrame, lang: LangSpec): DataFrame =
      nm.select(explode(arrays_zip(col("concepts"), col("tokens"))).as("ct"))
        .groupBy(col("ct.tokens").as("token"))
        .agg(min(col("ct.concepts")).as("concept"))
        .as[(String, Long)]
        .flatMap { case (token, concept) =>
          if (NameModel.frac(s"oov:${lang.code}:$token:$seed") < lang.oov) None
          else Some(DictEntry(token, HashVectors.perturb(
            HashVectors.unitGaussian(s"c:$concept", Dim),
            HashVectors.unitGaussian(s"t:$token:${lang.code}", Dim),
            lang.sigma)))
        }
        .toDF()

    val dict1 = dict(names1, scenario.lang1)
    val dict2 = dict(names2, scenario.lang2)

    // --- gold split -----------------------------------------------------
    val gold = spark.range(nGold).as[Long]
    val seeds = gold.filter(i => NameModel.frac(s"split:$i:$seed") < SeedFraction)
      .map(i => GoldPair(i, i)).toDF()
    val test = gold.filter(i => NameModel.frac(s"split:$i:$seed") >= SeedFraction)
      .map(i => GoldPair(i, i)).toDF()

    EaBenchmark(scenario, nGold, triples1, triples2, names1, names2,
      dict1, dict2, seeds, test)
  }
}
