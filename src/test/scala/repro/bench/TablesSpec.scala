package repro.bench

import repro.SparkSpec
import repro.cost.CostModel.Sim

/** Tiny-scale smoke runs of every table runner: structure, count sanity
  * and cross-system invariants. Full-scale numbers come from bench/.
  */
class TablesSpec extends SparkSpec {

  private def allDefined(t: TableResult): Unit =
    for (s <- t.systems; c <- t.columns)
      assert(t.sims.contains((s, c)), s"missing cell ($s, $c)")

  test("table4 tiny: all cells present, G2Miner fastest, counts positive") {
    val t = Tables.table4(spark, Tables.tinyLoader)
    allDefined(t)
    assert(t.counts.values.forall(_ >= 0))
    for (c <- t.columns) {
      val g2 = t.sim("G2Miner", c).seconds.get
      for (s <- t.systems if s != "G2Miner"; sec <- t.sim(s, c).seconds)
        assert(g2 <= sec, s"G2Miner not fastest on $c vs $s")
    }
  }

  test("table4 tiny: CPU systems slower than GPU G2Miner everywhere") {
    val t = Tables.table4(spark, Tables.tinyLoader)
    for (c <- t.columns)
      assert(t.sim("GraphZero", c).seconds.get > t.sim("G2Miner", c).seconds.get)
  }

  test("table5 tiny smoke") {
    val t = Tables.table5(spark, Tables.tinyLoader)
    allDefined(t)
    // 4-clique counts are consistent with 5-clique counts (5CL <= 4CL * V)
    assert(t.counts.keys.exists(_.startsWith("4CL")))
  }

  test("table6 tiny smoke (no Pangolin column)") {
    val t = Tables.table6(spark, Tables.tinyLoader)
    allDefined(t)
    assert(!t.systems.contains("Pangolin"))
  }

  test("table7 tiny smoke: motif totals positive") {
    val t = Tables.table7(spark, Tables.tinyLoader)
    allDefined(t)
    assert(t.counts.values.forall(_ > 0))
  }

  test("table8 tiny smoke") {
    val t = Tables.table8(spark, Tables.tinyLoader)
    allDefined(t)
    // more permissive sigma finds at least as many frequent patterns
    for (g <- Seq("Mi", "Pa", "Yo"))
      assert(t.counts(s"$g/300") >= t.counts(s"$g/5000"))
  }

  test("table9 tiny smoke: counting-only GPU beats counting-only CPU") {
    val t = Tables.table9(spark, Tables.tinyLoader)
    allDefined(t)
    for (c <- t.columns)
      assert(t.sim("G2Miner", c).seconds.get < t.sim("Peregrine", c).seconds.get)
  }

  test("table9 diamond counts equal table6 diamond counts (same semantics)") {
    val t9 = Tables.table9(spark, Tables.tinyLoader)
    val t6 = Tables.table6(spark, Tables.tinyLoader)
    for (g <- Seq("Lj", "Or", "Fr"))
      assert(t9.counts(s"dia/$g") == t6.counts(s"dia/$g"))
  }

  test("multi-GPU scaling tiny smoke: chunked RR reaches better 8-GPU speedup") {
    val (rows, rendered) = Tables.multiGpuScaling(spark, Tables.tinyLoader)
    val even8 = rows.find(r => r.n == 8 && r.policy == "even-split").get.speedup
    val chunk8 = rows.find(r => r.n == 8 && r.policy == "chunked-rr").get.speedup
    assert(chunk8 >= even8)
    assert(rendered.contains("Multi-GPU"))
  }

  test("render produces a readable table with paper rows") {
    val t = Tables.table4(spark, Tables.tinyLoader)
    val out = t.render
    assert(out.contains("G2Miner") && out.contains("[paper]") && out.contains("[sim]"))
  }

  test("tiny tables 4-9 and the multi-GPU text equal the golden output") {
    // Engine refactors must leave counts, work metrics and every [sim] cell
    // byte-identical; golden/tiny-tables.txt is the reference output.
    val l = Tables.tinyLoader
    val text = Seq(Tables.table4(spark, l), Tables.table5(spark, l), Tables.table6(spark, l),
      Tables.table7(spark, l), Tables.table8(spark, l), Tables.table9(spark, l)).map(_.render).mkString +
      Tables.multiGpuScaling(spark, l)._2
    val in = getClass.getResourceAsStream("/golden/tiny-tables.txt")
    val golden = try new String(in.readAllBytes(), "UTF-8") finally in.close()
    assert(text == golden)
  }

  test("paper numbers tables are complete") {
    import PaperNumbers._
    assert(table4.size == 5 * 6)
    assert(table5.size == 5 * 8)
    assert(table6.size == 4 * 8)
    assert(table7.size == 4 * 8)
    assert(table8.size == 4 * 12)
    assert(table9.size == 2 * 13)
  }
}
