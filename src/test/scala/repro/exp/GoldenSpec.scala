package repro.exp

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.core._
import repro.kg.{BenchmarkGen, Scenario}
import repro.{Fixtures, SparkSpec}

/** Bit-identity gate: SHA-256 digests of the raw bits of every result the
  * tables are built from, on four generated benchmarks at seed 7.
  *
  * Per benchmark, one digest for each of: `M^s`, `M^n`, `M^l`; the four
  * embedding tables; the five baseline matrices; the weights and matchings
  * of the 11 Table V configurations and LR; and the ranking metrics of every
  * one of those matrices. A refactor that claims to keep the results must
  * leave every digest as recorded here. A change that means to move a
  * result records the new digests, and says why, in the same change.
  *
  * A generated graph depends only on (density, gold pairs, seed), so no two
  * inputs share all three: DBP100K WD uses 250 gold pairs, as DBP15K ZH-EN
  * (200) is dense too.
  */
class GoldenSpec extends SparkSpec with Fixtures {

  /** An incremental SHA-256 over longs, doubles (raw bits) and strings. */
  private final class Digest {
    private val md = MessageDigest.getInstance("SHA-256")
    private val buf = ByteBuffer.allocate(8)
    def long(x: Long): Unit = { buf.clear(); md.update(buf.putLong(x).array()) }
    def double(x: Double): Unit = long(java.lang.Double.doubleToRawLongBits(x))
    def string(s: String): Unit = { long(s.length.toLong); md.update(s.getBytes(UTF_8)) }
    def matrix(m: LocalMatrix): Unit = {
      long(m.rows.toLong); long(m.cols.toLong)
      m.srcs.foreach(long); m.dsts.foreach(long); m.score.foreach(double)
    }
    def vectors(v: EntityTables.Vectors): Unit =
      v.toSeq.sortBy(_._1).foreach { case (id, x) => long(id); long(x.length.toLong); x.foreach(double) }
    def weights(w: Map[String, Double]): Unit =
      w.toSeq.sortBy(_._1).foreach { case (f, x) => string(f); double(x) }
    def pairs(p: Seq[(Long, Long)]): Unit = { long(p.size.toLong); p.sorted.foreach { case (s, d) => long(s); long(d) } }
    def ranks(r: RankingMetrics): Unit = Seq(r.hitsAt1, r.hitsAt10, r.mrr).foreach(double)
    def hex: String = md.digest().map(b => f"$b%02x").mkString
  }

  private def digest(f: Digest => Unit): String = { val d = new Digest; f(d); d.hex }

  /** Every digest of one benchmark, by group name. */
  private def digests(scenario: Scenario, nGold: Long): Map[String, String] = {
    val b = BenchmarkGen.generate(spark, scenario, nGold, nGold / 2, seed = 7).cached()
    try {
      val fs = Ceaff.features(spark, b)
      val baselines = Baselines.names.map(n => n -> Baselines.matrix(b, fs, n))
      val lr = LRFusion.learnWeights(spark, b, fs)
      val runs = (Experiments.ablations :+ ("LR" -> CeaffConfig(fixedWeights = Some(lr))))
        .map { case (name, cfg) => name -> Ceaff.run(spark, fs, cfg) }
      val ranked = Seq(Ceaff.Struct, Ceaff.Sem, Ceaff.Str).map(f => f -> fs.local(f)) ++
        baselines ++ runs.map { case (name, r) => name -> r.local }
      Map(
        "Ms" -> digest(_.matrix(fs.local(Ceaff.Struct))),
        "Mn" -> digest(_.matrix(fs.local(Ceaff.Sem))),
        "Ml" -> digest(_.matrix(fs.local(Ceaff.Str))),
        "embeddings" -> digest(d => Seq(fs.struct1, fs.struct2, fs.sem1, fs.sem2).foreach(d.vectors)),
        "baselines" -> digest(d => baselines.foreach { case (n, m) => d.string(n); d.matrix(m) }),
        "tableV" -> digest(d => runs.foreach { case (n, r) =>
          d.string(n); d.weights(r.weights); d.pairs(r.matching)
        }),
        "ranks" -> digest(d => ranked.foreach { case (n, m) =>
          d.string(n); d.ranks(Evaluation.rankingMetrics(m, b.testPairs))
        }))
    } finally b.unpersistAll()
  }

  private val golden: Seq[(Scenario, Long, Map[String, String])] = Seq(
    (Scenario.SrprsEnFr, 300L, Map(
      "Ml" -> "9d3f23234ab8c362c4cd116c21edccaa4308660292f61cb0ddd4bff30b747d4e",
      "Mn" -> "4a5e3bdefe3f0e22490fc9dde21d5ba186a95274603bb78de930e3a4b58ab2ea",
      "Ms" -> "9846575ea3e7ff278fccbf6304368734752b4bc06b2b166a2b46146c90d43dc8",
      "baselines" -> "7793469c0af313aefef20426b5fac82e800d2047b54797292aa08af42eafe1f0",
      "embeddings" -> "38a5cc2f9bc4ab25454d2e5970e87069090baa4481d6947371e2b30625642d9f",
      "ranks" -> "66fbca656e492a0332ac96888a33d7df945faa5bef522737cb1954e993d4b322",
      "tableV" -> "c575b34c8636a5ea300602cfeb0ab9a9d20d226a5519a698d066c1aec6779489")),
    (Scenario.Dbp15kZhEn, 200L, Map(
      "Ml" -> "04e82b8c656204a7f53995ee132374269822f8c6f03deb06015b17f3323caad4",
      "Mn" -> "5a0ea101b8fdbc8b163eb87572edc2c68126761bca0048c3ab32b8ccfb8faca9",
      "Ms" -> "2d756911643e5d929374c4db40a5a03e55421ea6cd6620d0999e09d3e1c07cbd",
      "baselines" -> "6a9a1ba29517182f0e36f4f97dd7d63a8b226d25b35dea521573995cdfeb7547",
      "embeddings" -> "c29580f3c82a7a74ad43cb7c1408461cc4d745d56bfb53d137f7049db6d297b6",
      "ranks" -> "c263c702fb82e15e50f1fbcf7ff3c0efd16886755ad989e03fb014d2cc94631f",
      "tableV" -> "a0b2c44f3838538104e7c992e97fe57f6dd39af4d2d75c9ff0e17e4b7fb4e2dc")),
    (Scenario.Dbp100kWd, 250L, Map(
      "Ml" -> "6fe0f9da55459ea163cf5f3a6a935453161407c45a16d4494db9d80b0f4c7a13",
      "Mn" -> "df7d7cf2cc9f9ad8a16a4bd7e5879efa3d502214990201a97d5aafbb539b617f",
      "Ms" -> "1519b274b16c6a74a7a57476429b02eed4bf57b68036238fea49d342d6932494",
      "baselines" -> "eab7fdeaeb299bc0be29b93123b0dfc167752051bad8c9ce193c4fb6614be25f",
      "embeddings" -> "267255de0a1a8526cf78235afef6be6cb95d15a87ca87997fd8b7761402cedf5",
      "ranks" -> "a91c123241aad0a9ba4c031acb4a1ddce056a2e69b33020fc790a15c280bf2bf",
      "tableV" -> "536a91de2c5b9d0d1b5f0c4f4df9b1234adb48ccd96cfd9f68f8a5bc073a3a69")),
    (Scenario.SrprsYg, 150L, Map(
      "Ml" -> "d2af61c882535159113456ce4461b996e315d529f6ac9061154fbccf810c39bd",
      "Mn" -> "bc8a332b20c8cd798d23e37ac70f3c0844c4468cef46875828192ecda990c9bf",
      "Ms" -> "5bce8fdd53cab4dc6d4725941ab27516c0da56ddab7d30d4f7ea3a456b033cfd",
      "baselines" -> "67e35ec05f15ae35ccc68a4245075c34874cd6ed9d8dc203f544888739e2593b",
      "embeddings" -> "cdb24a6ed875a0aa66fb7cc0632516d2c91cc0c7732c9522eac4095c77a1e3c8",
      "ranks" -> "f56df89281379d9d417516e9aa31ca266b464f2919810200a6b4e39f0d126643",
      "tableV" -> "aedfad15bc987ff87d9d730d54b5ba201bc7f79523dac638152a2fd5f2874bb1")))

  for ((scenario, nGold, want) <- golden)
    test(s"${scenario.name}, $nGold gold pairs: every result has its recorded bits") {
      val t0 = System.nanoTime()
      val got = digests(scenario, nGold)
      info(f"${(System.nanoTime() - t0) / 1e9}%.1f s")
      val differ = got.keys.toSeq.sorted.filter(k => !want.get(k).contains(got(k)))
      assert(differ.isEmpty,
        differ.map(k => s"""\n  "$k" -> "${got(k)}",""").mkString("digests differ:", "", ""))
    }
}
