package repro.fsm

import repro.{SparkSpec, TestGraphs}
import repro.graph.CSRGraph
import repro.pattern.{Pattern, Patterns}

/** Brute-force FSM reference: enumerate every connected edge subset up to
  * `maxEdges`, group by canonical labeled code, compute MNI over all
  * isomorphisms. Only viable on tiny graphs — which is the point.
  */
object FsmRef {
  private type Edges = Seq[(Int, Int)]

  def run(g: CSRGraph, maxEdges: Int, sigma: Long): Map[String, Long] =
    (1 to maxEdges).flatMap(k => supports(g, connectedSubsets(edges(g), k)))
      .filter(_._2 >= sigma).toMap

  /** Per-level sizes: embeddings, candidate patterns, frequent patterns. */
  final case class Level(embeddings: Long, candidates: Int, frequent: Int)

  /** The levels `Fsm.run` grows. Level 1 holds every edge; level k holds
    * the connected k-edge subsets that have an edge whose removal leaves a
    * connected subset whose pattern was frequent at level k-1. Label
    * pruning drops the edges at vertices whose label occurs fewer than
    * `sigma` times.
    */
  def levels(g: CSRGraph, maxEdges: Int, sigma: Long, labelPruning: Boolean): Vector[Level] = {
    val freqLabel = g.labels.groupBy(identity).map { case (l, vs) => l -> (vs.length >= sigma) }
    val es = edges(g).filter { case (u, v) =>
      !labelPruning || (freqLabel(g.label(u)) && freqLabel(g.label(v)))
    }
    var frequent = Set.empty[String]
    (1 to maxEdges).toVector.map { k =>
      val prev = frequent
      val level = connectedSubsets(es, k).filter { s =>
        k == 1 || s.exists { e =>
          val rest = s.filterNot(_ == e)
          connected(rest) && prev.contains(code(g, rest))
        }
      }.toVector
      val sup = supports(g, level.iterator)
      frequent = sup.filter(_._2 >= sigma).keySet
      Level(level.size.toLong, sup.size, frequent.size)
    }
  }

  private def edges(g: CSRGraph): Edges =
    g.canonicalEdges.toSeq.map(e => ((e >>> 32).toInt, (e & 0xffffffffL).toInt))

  private def connectedSubsets(es: Edges, k: Int): Iterator[Edges] =
    es.combinations(k).filter(connected)

  private def vertices(es: Edges): Seq[Int] = es.flatMap(e => Seq(e._1, e._2)).distinct.sorted

  private def local(g: CSRGraph, es: Edges): (Seq[Int], Pattern) = {
    val verts = vertices(es)
    val vIdx = verts.zipWithIndex.toMap
    (verts, Patterns.fromEdges(verts.length, es.map(e => (vIdx(e._1), vIdx(e._2))),
      Some(verts.map(g.label).toVector)))
  }

  private def code(g: CSRGraph, es: Edges): String = local(g, es)._2.canonicalCode

  /** MNI support of every pattern among `subsets`, over all isomorphisms. */
  private def supports(g: CSRGraph, subsets: Iterator[Edges]): Map[String, Long] = {
    val domains = scala.collection.mutable.HashMap.empty[String, Array[scala.collection.mutable.Set[Int]]]
    for (es <- subsets) {
      val (verts, local) = this.local(g, es)
      if (verts.length <= 4) {
        val code = local.canonicalCode
        val canon = Fsm.decodePattern(code)
        val dom = domains.getOrElseUpdate(code,
          Array.fill(canon.n)(scala.collection.mutable.Set.empty[Int]))
        // all isomorphisms canon -> local subgraph
        for (perm <- verts.indices.toVector.permutations) {
          val ok = (0 until canon.n).forall { i =>
            canon.labels.get(i) == g.label(verts(perm(i))) &&
              (0 until canon.n).forall(j => canon.isEdge(i, j) == local.isEdge(perm(i), perm(j)))
          }
          if (ok) for (i <- 0 until canon.n) dom(i) += verts(perm(i))
        }
      }
    }
    domains.map { case (code, dom) => code -> dom.map(_.size.toLong).min }.toMap
  }

  private def connected(es: Edges): Boolean = {
    val verts = vertices(es)
    if (verts.isEmpty) return false
    var seen = Set(verts.head)
    var changed = true
    while (changed) {
      changed = false
      for ((u, v) <- es) {
        if (seen(u) && !seen(v)) { seen += v; changed = true }
        if (seen(v) && !seen(u)) { seen += u; changed = true }
      }
    }
    seen.size == verts.size
  }
}

class FsmSpec extends SparkSpec {

  test("decodePattern round-trips canonical codes") {
    val ps = Seq(
      Fsm.singleEdgePattern(2, 5),
      Patterns.fromEdges(3, Seq((0, 1), (1, 2)), Some(Vector(1, 0, 1))),
      Patterns.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)), Some(Vector(0, 1, 1, 2))),
      Patterns.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)), Some(Vector(3, 3, 3))),
    )
    for (p <- ps) {
      val code = p.canonicalCode
      val back = Fsm.decodePattern(code)
      assert(back.canonicalCode == code)
      assert(back.isomorphicTo(p))
    }
  }

  test("singleEdgePattern sorts labels") {
    assert(Fsm.singleEdgePattern(5, 2).labels.get == Vector(2, 5))
    assert(Fsm.singleEdgePattern(2, 5).canonicalCode == Fsm.singleEdgePattern(5, 2).canonicalCode)
  }

  for (sigma <- Seq(1L, 2L, 3L, 5L))
    test(s"FSM == brute force on labeledTiny (sigma=$sigma, maxEdges=2)") {
      val g = TestGraphs.labeledTiny
      val got = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = sigma, maxEdges = 2))
      val want = FsmRef.run(g, maxEdges = 2, sigma)
      assert(got.frequent == want)
    }

  for (sigma <- Seq(2L, 4L))
    test(s"FSM == brute force on labeledTiny (sigma=$sigma, maxEdges=3)") {
      val g = TestGraphs.labeledTiny
      val got = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = sigma, maxEdges = 3))
      val want = FsmRef.run(g, maxEdges = 3, sigma)
      assert(got.frequent == want)
    }

  test("FSM == brute force on DataGraphs tiny(mi) (sigma=2, maxEdges=3)") {
    val g = repro.graph.DataGraphs.tiny(repro.graph.DataGraphs.mi)
    val got = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 2, maxEdges = 3))
    assert(got.frequent == FsmRef.run(g, maxEdges = 3, sigma = 2))
  }

  for {
    (name, g, sigma) <- Seq(
      ("labeledTiny", () => TestGraphs.labeledTiny, 2L),
      ("labeledTiny", () => TestGraphs.labeledTiny, 4L),
      ("tiny(mi)", () => repro.graph.DataGraphs.tiny(repro.graph.DataGraphs.mi), 2L),
    )
  } test(s"FSM level sizes == per-level reference on $name (sigma=$sigma, maxEdges=3)") {
    for (pruning <- Seq(true, false)) {
      val m = Fsm.run(spark, g(), Fsm.FsmConfig(minSupport = sigma, maxEdges = 3, labelPruning = pruning)).metrics
      val want = FsmRef.levels(g(), maxEdges = 3, sigma, pruning)
      assert(m.levelEmbeddings == want.map(_.embeddings), s"labelPruning=$pruning")
      assert(m.candidatePatterns == want.map(_.candidates), s"labelPruning=$pruning")
      assert(m.frequentPatterns == want.map(_.frequent), s"labelPruning=$pruning")
    }
  }

  test("label pruning does not change results (opt N is exact)") {
    val g = TestGraphs.labeledTiny
    val a = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 3, maxEdges = 3, labelPruning = true))
    val b = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 3, maxEdges = 3, labelPruning = false))
    assert(a.frequent == b.frequent)
  }

  test("support is monotone: higher sigma yields a subset") {
    val g = TestGraphs.labeled
    val lo = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 3, maxEdges = 2))
    val hi = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 10, maxEdges = 2))
    assert(hi.frequent.keySet.subsetOf(lo.frequent.keySet))
    for ((c, s) <- hi.frequent) assert(lo.frequent(c) == s)
  }

  test("frequent single-edge supports match hand computation") {
    // path 0-1-2 labeled A-B-A: pattern (A,B) has MNI = min(|{0,2}|, |{1}|) = 1
    val g = CSRGraph.fromEdges(3, Seq((0, 1), (1, 2)), Array(0, 1, 0))
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 1, maxEdges = 1))
    val code = Fsm.singleEdgePattern(0, 1).canonicalCode
    assert(res.frequent(code) == 1)
  }

  test("MNI counts distinct vertices across automorphic embeddings") {
    // triangle with equal labels: single-edge pattern (A,A) domain = all 3
    val g = CSRGraph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)), Array(7, 7, 7))
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 1, maxEdges = 1))
    val code = Fsm.singleEdgePattern(7, 7).canonicalCode
    assert(res.frequent(code) == 3)
  }

  test("metrics: level embeddings monotone bookkeeping and label counts") {
    val g = TestGraphs.labeledTiny
    val cached = spark.sparkContext.getPersistentRDDs.keySet
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 2, maxEdges = 3))
    assert(spark.sparkContext.getPersistentRDDs.keySet == cached)
    val m = res.metrics
    assert(m.levelEmbeddings.length == 3)
    assert(m.levelEmbeddings.head == g.numEdges || m.levelEmbeddings.head <= g.numEdges)
    assert(m.numFrequentLabels <= m.numLabels)
    assert(m.extensionWork > 0)
  }

  test("FSM on a labeled DataGraphs tiny analog completes") {
    val g = repro.graph.DataGraphs.tiny(repro.graph.DataGraphs.mi)
    val res = Fsm.run(spark, g, Fsm.FsmConfig(minSupport = 2, maxEdges = 3))
    assert(res.frequent.nonEmpty)
  }
}
