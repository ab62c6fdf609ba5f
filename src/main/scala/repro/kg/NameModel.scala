package repro.kg

import repro.text.HashVectors

/** Deterministic entity-name model for the synthetic benchmark.
  *
  * Every entity owns a short sequence of latent *word concepts* (a head
  * word plus optional modifiers). A concept is rendered to a surface token
  * per language: Latin-script languages share a syllabic rendering with
  * language-specific character perturbations (closely-related languages ⇒
  * high Levenshtein ratio), while `zh`/`ja` re-render each concept in a
  * disjoint unicode block (distant languages ⇒ string signal destroyed) —
  * exactly the axes the paper's per-dataset results depend on.
  *
  * All functions are pure in (inputs, seed) so driver and executors agree.
  */
object NameModel {

  /** Uniform double in [0,1) derived from a string key — the only source
    * of randomness in the generator.
    */
  def frac(key: String): Double = fracOf(HashVectors.hash64(key))

  /** [[frac]] of a key whose FNV-1a hash is `hash`. FNV-1a's upper bits are
    * weak for short keys, so a murmur3-style finalizer mixes the hash
    * first.
    */
  def fracOf(hash: Long): Double = {
    var h = hash
    h ^= h >>> 33; h *= 0xff51afd7ed558ccdL
    h ^= h >>> 33; h *= 0xc4ceb9fe1a85ec53L
    h ^= h >>> 33
    (h >>> 11).toDouble / (1L << 53).toDouble
  }

  // ---------------------------------------------------------------------
  // Latent concepts
  // ---------------------------------------------------------------------

  // Concept-id namespaces (disjoint ranges keep head/popular/modifier
  // vocabularies from colliding).
  private val HeadBase = 1_000_000L
  private val PopBase  = 2_000_000L
  private val ModBase  = 3_000_000L

  /** Fraction of entities whose head word comes from a small popular pool,
    * creating name collisions that a single feature cannot resolve (the
    * mechanism behind "CEAFF reaches 1.0 where string alone does not").
    */
  private val SharedHeadRate = 0.10

  /** Word-concept ids for entity `i` out of `nGold` gold entities. */
  def concepts(i: Long, nGold: Long, seed: Long): Seq[Long] = {
    val popPool = math.max(4L, nGold / 25)
    val modPool = math.max(8L, nGold / 10)
    val head =
      if (frac(s"share:$i:$seed") < SharedHeadRate)
        PopBase + (HashVectors.hash64(s"pop:$i:$seed").abs % popPool)
      else HeadBase + i
    val buf = Seq.newBuilder[Long]
    // Modifier words are Zipf-ish: min of two uniform draws biases low ids.
    def modifier(tag: String): Long = {
      val a = HashVectors.hash64(s"moda:$tag:$i:$seed").abs % modPool
      val b = HashVectors.hash64(s"modb:$tag:$i:$seed").abs % modPool
      ModBase + math.min(a, b)
    }
    if (frac(s"mod1:$i:$seed") < 0.55) buf += modifier("m1")
    buf += head
    if (frac(s"mod2:$i:$seed") < 0.15) buf += modifier("m2")
    buf.result()
  }

  // ---------------------------------------------------------------------
  // Surface rendering
  // ---------------------------------------------------------------------

  private val Consonants = "bcdfglmnprstvz" // 14
  private val Vowels     = "aeiou"          // 5

  /** Base-70 digits of a concept id, most-significant first. */
  private def digits(conceptId: Long): Seq[Int] = {
    var x = conceptId
    val buf = List.newBuilder[Int]
    while (x > 0) { buf += (x % 70).toInt; x /= 70 }
    buf.result().reverse
  }

  /** Latin syllabic rendering: one consonant+vowel pair per digit. */
  private def latin(conceptId: Long): String = {
    val sb = new StringBuilder
    digits(conceptId).foreach { d =>
      sb.append(Consonants(d / 5)).append(Vowels(d % 5))
    }
    sb.toString
  }

  /** Disjoint-script rendering: one codepoint per digit. */
  private def script(conceptId: Long, base: Int): String =
    digits(conceptId).map(d => (base + d).toChar).mkString

  /** Perturb a Latin token with language-systematic character edits; the
    * edit decisions are deterministic in (token, lang) so the same token
    * is always transformed identically within a language.
    */
  private def perturbLatin(tok: String, lang: String, charRate: Double,
                           suffix: String, suffixRate: Double): String = {
    val sb = new StringBuilder
    var i = 0
    while (i < tok.length) {
      val c = tok.charAt(i)
      if (frac(s"pc:$lang:$tok:$i") < charRate) {
        val vi = Vowels.indexOf(c)
        val ci = Consonants.indexOf(c)
        if (vi >= 0) sb.append(Vowels((vi + 1 + (HashVectors.hash64(s"v:$lang:$c").abs % 3).toInt) % 5))
        else if (ci >= 0) sb.append(Consonants((ci + 1 + (HashVectors.hash64(s"c:$lang:$c").abs % 4).toInt) % 14))
        else sb.append(c)
      } else sb.append(c)
      i += 1
    }
    if (frac(s"sfx:$lang:$tok") < suffixRate) sb.append(suffix)
    sb.toString
  }

  /** Render one word concept in `lang`. */
  def render(conceptId: Long, lang: String): String = lang match {
    case "en" => latin(conceptId)
    case "fr" => perturbLatin(latin(conceptId), "fr", charRate = 0.16, suffix = "e",  suffixRate = 0.35)
    case "de" => perturbLatin(latin(conceptId), "de", charRate = 0.20, suffix = "en", suffixRate = 0.30)
    case "wd" => perturbLatin(latin(conceptId), "wd", charRate = 0.02, suffix = "",   suffixRate = 0.0)
    case "yg" => latin(conceptId) // formatting difference is entity-level (underscores)
    case "zh" => script(conceptId, 0x4e00)
    case "ja" => script(conceptId, 0x30a0)
    case other => throw new IllegalArgumentException(s"unknown language '$other'")
  }

  /** Assemble rendered tokens into the entity's display name. */
  def assemble(tokens: Seq[String], lang: String): String = lang match {
    case "yg" => tokens.mkString("_") // YAGO-style underscore formatting
    case _    => tokens.mkString(" ")
  }

  // ---------------------------------------------------------------------
  // Graph structure
  // ---------------------------------------------------------------------

  /** Out-degree of entity `i` in the hidden world graph. Dense scenarios
    * mimic DBP15K/DBP100K (~7 avg); sparse ones mimic SRPRS real-life
    * Zipf degrees (~2.5 avg, heavy tail).
    */
  def degree(i: Long, dense: Boolean, seed: Long): Int = {
    val u = frac(s"deg:$i:$seed")
    if (dense) 4 + (u * 7).toInt // 4..10
    else math.min(40, math.max(1, math.pow(1.0 - u, -0.75).toInt)) // Zipf-ish ≥1
  }

  /** k-th edge target for entity `i`, drawn preferentially towards low
    * ids (hubs) from `[0, pool)`.
    */
  def target(i: Long, k: Int, pool: Long, seed: Long): Long = {
    val u = frac(s"tgt:$i:$k:$seed")
    val t = (u * u * pool).toLong // quadratic bias towards popular entities
    if (t == i) (t + 1) % pool else t
  }

  /** Relation id for a world edge (shared by both KGs). */
  def relation(src: Long, dst: Long, nRel: Int, seed: Long): Long =
    HashVectors.hash64(s"rel:$src:$dst:$seed").abs % nRel

  /** Per-side survival probability of a gold-gold world edge. 0.72 per
    * side gives ~52% edge overlap between the two KGs — enough shared
    * structure to align through, heterogeneous enough that structure
    * alone stays in the paper's mid-accuracy band.
    */
  val EdgeKeepRate = 0.72

  /** Whether a gold-gold world edge survives into KG `side` (1 or 2);
    * independent subsampling gives the two KGs overlapping but
    * heterogeneous neighbourhoods.
    */
  def keptIn(src: Long, dst: Long, side: Int, seed: Long): Boolean =
    frac(s"keep:$side:$src:$dst:$seed") < EdgeKeepRate
}
