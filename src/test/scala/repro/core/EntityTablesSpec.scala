package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.kg.{Label, NameModel}
import repro.text.{HashVectors, LevenshteinSpec}

/** The feature kernels against per-cell scoring, which computes every
  * cell from the two ids alone: both norms, the jitter key as a string and
  * the cost-2 dynamic program.
  */
class EntityTablesSpec extends AnyFunSuite {

  private def cosine(a: Option[Array[Double]], b: Option[Array[Double]]): Double = (a, b) match {
    case (Some(x), Some(y)) =>
      val (nx, ny) = (math.sqrt(HashVectors.dot(x, x)), math.sqrt(HashVectors.dot(y, y)))
      if (nx == 0.0 || ny == 0.0) 0.0 else HashVectors.dot(x, y) / (nx * ny)
    case _ => 0.0
  }

  private def perCell(t: EntityTables, f: String)(s: Long, d: Long): Double = f match {
    case Ceaff.Struct =>
      cosine(t.struct1.get(s), t.struct2.get(d)) * StructuralFeature.CosineScale +
        NameModel.frac(s"jitter:$s:$d") * StructuralFeature.JitterAmp
    case Ceaff.Sem => cosine(t.sem1.get(s), t.sem2.get(d))
    case Ceaff.Str => (t.names1.get(s), t.names2.get(d)) match {
      case (Some(a), Some(b)) => LevenshteinSpec.ratioDp(a.text, b.text)
      case _                  => 0.0
    }
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("prepared kernels score every cell as per-cell scoring does, bit for bit") {
    val rnd = new scala.util.Random(5)
    def vec = Array.fill(4)(rnd.nextGaussian())
    def label(s: String) = Label(s, s.split(" ").toSeq)
    val long = "alpha beta gamma " * 9 // 153 characters
    // Sources 1-6 and targets 11-16. Source 5 and target 15 have no name
    // and no vectors; 3 and 13 have empty names; 4 and 14 long ones;
    // 2 and 12 zero vectors.
    val names1 = Map(1L -> "paris", 2L -> "北京市", 3L -> "", 4L -> long, 6L -> "ab")
      .map { case (id, n) => id -> label(n) }
    val names2 = Map(11L -> "parís", 12L -> "北京", 13L -> "", 14L -> (long + "x"), 16L -> "")
      .map { case (id, n) => id -> label(n) }
    def vectors(ids: Seq[Long], zero: Long) =
      ids.map(id => id -> (if (id == zero) new Array[Double](4) else vec)).toMap
    val t = EntityTables(vectors(Seq(1L, 2L, 3L, 4L, 6L), 2L), vectors(Seq(11L, 12L, 13L, 14L, 16L), 12L),
      vectors(Seq(1L, 2L, 3L, 4L, 6L), 2L), vectors(Seq(11L, 12L, 13L, 14L, 16L), 12L), names1, names2)
    val grid = LocalMatrix.grid((1L to 6L).toArray, (11L to 16L).toArray, 0.0)
    val pairs = for (s <- grid.srcs.toSeq; d <- grid.dsts.toSeq) yield (s, d)
    for (f <- Seq(Ceaff.Struct, Ceaff.Sem, Ceaff.Str)) {
      val m = t.kernel(f).matrix(grid)
      val expected = pairs.map { case (s, d) => perCell(t, f)(s, d) }
      assert(m.score.toSeq.map(bits) == expected.map(x => bits(x + 0.0)), f)
      assert(t.kernel(f).on(pairs).toSeq.map(bits) == expected.map(bits), f)
    }
    val ml = t.kernel(Ceaff.Str).matrix(grid)
    def cell(m: LocalMatrix, s: Long, d: Long) = m.score((s - 1).toInt * m.cols + (d - 11).toInt)
    assert(cell(ml, 3L, 13L) == 1.0 && cell(ml, 3L, 16L) == 1.0, "two empty names")
    assert(cell(ml, 1L, 13L) == 0.0 && cell(ml, 3L, 11L) == 0.0, "an empty name against a non-empty one")
    assert((11L to 16L).forall(cell(ml, 5L, _) == 0.0) && (1L to 6L).forall(cell(ml, _, 15L) == 0.0), "no name")
    assert(cell(ml, 4L, 14L) == 306.0 / 307.0)
  }
}
