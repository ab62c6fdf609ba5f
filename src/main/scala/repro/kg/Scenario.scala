package repro.kg

/** Language model for one side of a synthetic KG pair.
  *
  * @param code       language tag, drives name rendering (see [[NameModel]])
  * @param sigma      cross-lingual embedding alignment noise — how far a
  *                   token's vector drifts from its latent concept vector
  *                   (MUSE-quality proxy; larger for distant languages)
  * @param oov        probability that a token is missing from the word
  *                   embedding dictionary (out-of-vocabulary proxy)
  */
final case class LangSpec(code: String, sigma: Double, oov: Double)

/** One synthetic KG pair mirroring a paper benchmark dataset.
  *
  * The three axes that drive every result in the paper are explicit:
  * density (structural signal quality), the two languages' rendering
  * (string signal quality) and their embedding noise/OOV (semantic signal
  * quality). See DESIGN.md §2 for the dataset substitution rationale.
  *
  * @param name  dataset label as printed in the paper's tables
  * @param group benchmark family: "DBP15K", "DBP100K" or "SRPRS"
  * @param dense dense DBP15K/DBP100K-like degrees vs sparse real-life
  *              SRPRS-like degrees
  */
final case class Scenario(
    name: String,
    group: String,
    lang1: LangSpec,
    lang2: LangSpec,
    dense: Boolean)

object Scenario {
  // Language roster. `en` is the reference side. Mono-lingual datasets use
  // `en` against a lightly-perturbed variant (Wikidata/YAGO formatting).
  val En = LangSpec("en", sigma = 0.15, oov = 0.03)
  val Fr = LangSpec("fr", sigma = 0.30, oov = 0.08)
  val De = LangSpec("de", sigma = 0.30, oov = 0.08)
  val Zh = LangSpec("zh", sigma = 0.85, oov = 0.45)
  val Ja = LangSpec("ja", sigma = 0.75, oov = 0.40)
  val Wd = LangSpec("wd", sigma = 0.15, oov = 0.05)
  val Yg = LangSpec("yg", sigma = 0.18, oov = 0.06)

  val Dbp15kZhEn = Scenario("DBP15K_ZH-EN", "DBP15K", Zh, En, dense = true)
  val Dbp15kJaEn = Scenario("DBP15K_JA-EN", "DBP15K", Ja, En, dense = true)
  val Dbp15kFrEn = Scenario("DBP15K_FR-EN", "DBP15K", Fr, En, dense = true)
  val Dbp100kWd  = Scenario("DBP100K_DBP-WD", "DBP100K", En, Wd, dense = true)
  val Dbp100kYg  = Scenario("DBP100K_DBP-YG", "DBP100K", En, Yg, dense = true)
  val SrprsEnFr  = Scenario("SRPRS_EN-FR", "SRPRS", En, Fr, dense = false)
  val SrprsEnDe  = Scenario("SRPRS_EN-DE", "SRPRS", En, De, dense = false)
  val SrprsWd    = Scenario("SRPRS_DBP-WD", "SRPRS", En, Wd, dense = false)
  val SrprsYg    = Scenario("SRPRS_DBP-YG", "SRPRS", En, Yg, dense = false)

  /** The nine KG pairs of Table II, in the paper's order. */
  val all: Seq[Scenario] = Seq(
    Dbp15kZhEn, Dbp15kJaEn, Dbp15kFrEn,
    Dbp100kWd, Dbp100kYg,
    SrprsEnFr, SrprsEnDe, SrprsWd, SrprsYg)
}
