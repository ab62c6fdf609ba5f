package repro.kg

/** Per-KG statistics in the shape of the paper's Table II. */
final case class KgPairStats(
    dataset: String,
    kg1Label: String, triples1: Long, entities1: Long,
    kg2Label: String, triples2: Long, entities2: Long,
    goldPairs: Long, seedPairs: Long, testPairs: Long)

object KgStats {

  /** Table II's counts, from `b`'s driver copies. A KG's entities are the
    * distinct ids that are named or appear in its triples.
    */
  def of(b: EaBenchmark): KgPairStats = {
    val s = b.scenario
    def entities(edges: Seq[(Long, Long)], labels: Map[Long, Label]): Long =
      (labels.keySet ++ edges.flatMap { case (a, c) => Seq(a, c) }).size
    KgPairStats(
      dataset = s.name,
      kg1Label = s.lang1.code, triples1 = b.edges1.size,
      entities1 = entities(b.edges1, b.labels1),
      kg2Label = s.lang2.code, triples2 = b.edges2.size,
      entities2 = entities(b.edges2, b.labels2),
      goldPairs = b.seedPairs.size + b.testPairs.size,
      seedPairs = b.seedPairs.size,
      testPairs = b.testPairs.size)
  }
}
