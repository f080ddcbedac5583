package repro.perfbench

import repro.graph.{CSRGraph, SynthGraphs}
import repro.pattern.{Pattern, Patterns}

/** Generator parameters of one data-graph analog, copied from
  * `repro.graph.DataGraphs` so the benchmark owns its inputs: graphs are
  * built here, never through `DataGraphs.build` (whose cache is keyed by
  * name and returns the same object every time).
  */
final case class GraphSpec(name: String, n: Int, e: Int, alpha: Double, labels: Int, seed: Long,
                           closure: Double, cliques: Seq[Int]) {

  /** The same generator at `s` times the vertex and edge count. Planted
    * cliques keep their number and shrink by √s, so their share of the
    * edges stays the same.
    */
  def scaled(s: Double): GraphSpec =
    copy(n = math.round(n * s).toInt, e = math.round(e * s).toInt,
      cliques = cliques.map(c => math.max(4, math.round(c * math.sqrt(s)).toInt)))

  /** Independent instance `i` of this generator; instance 0 is the spec itself. */
  def instance(i: Int): GraphSpec = copy(name = s"$name.$i", seed = seed + 7919L * i)

  /** The spec's graph, generated from the spec seed, with its vertex ids
    * permuted by the benchmark's seed (seed 0 keeps them). Every seed thus
    * gives an isomorphic copy with the same answers, in another vertex
    * order, which moves symmetry breaking, orientation ties, partitioning
    * and task order. A fresh draw from the generator would instead change
    * a query's work by a fifth or more at these sizes (the FSM embeddings
    * and the hub degrees vary that much), and that would swamp the
    * run-to-run figures the benchmark compares.
    */
  def build(benchSeed: Long): CSRGraph =
    Relabel.permute(SynthGraphs.powerLaw(n, e, alpha, seed, labels, closure = closure, plantCliques = cliques),
      benchSeed)
}

/** Isomorphic copies of a graph under a vertex-id permutation. */
object Relabel {

  /** Uniform random permutation of 0 until n from `seed`; the identity at seed 0. */
  def permutation(n: Int, seed: Long): Array[Int] = {
    val p = Array.tabulate(n)(identity)
    if (seed != 0) {
      val rnd = new java.util.Random(seed)
      var i = n - 1
      while (i > 0) { val j = rnd.nextInt(i + 1); val t = p(i); p(i) = p(j); p(j) = t; i -= 1 }
    }
    p
  }

  /** `g` with vertex v renamed `permutation(g.n, seed)(v)`, labels moving with
    * their vertices.
    */
  def permute(g: CSRGraph, seed: Long): CSRGraph =
    if (seed == 0) g
    else {
      val p = permutation(g.n, seed)
      val offsets = new Array[Int](g.n + 1)
      var v = 0
      while (v < g.n) { offsets(p(v) + 1) = g.deg(v); v += 1 }
      v = 0
      while (v < g.n) { offsets(v + 1) += offsets(v); v += 1 }
      val nbrs = new Array[Int](g.numArcs)
      v = 0
      while (v < g.n) {
        val o = offsets(p(v))
        var i = g.nbrStart(v)
        while (i < g.nbrEnd(v)) { nbrs(o + i - g.nbrStart(v)) = p(g.nbrs(i)); i += 1 }
        java.util.Arrays.sort(nbrs, o, o + g.deg(v))
        v += 1
      }
      val labels = new Array[Int](g.labels.length)
      v = 0
      while (v < labels.length) { labels(p(v)) = g.labels(v); v += 1 }
      new CSRGraph(g.n, offsets, nbrs, labels)
    }
}

object GraphSpecs {
  val lj: GraphSpec = GraphSpec("Lj", 4800, 43000, 0.90, 0, 101, 0.30, Seq.fill(15)(45))
  val or: GraphSpec = GraphSpec("Or", 3100, 80000, 0.72, 0, 102, 0.20, Seq.fill(12)(42))
  val tw4: GraphSpec = GraphSpec("Tw4", 16000, 380000, 0.84, 0, 104, 0.10, Nil)
  val uk: GraphSpec = GraphSpec("Uk", 40000, 420000, 0.85, 0, 106, 0.10, Nil)
  val mi: GraphSpec = GraphSpec("Mi", 800, 4000, 0.45, 29, 107, 0.20, Nil)
}

/** One query: a pattern workload on one input graph, as the paper's
  * tables and the systems it compares against (Peregrine, GraphZero)
  * define them. An answer is a vector of counts.
  */
sealed trait Query {
  def name: String
  def graph: String
  /** Whether the G²Miner configuration of this query orients its graph. */
  def orients: Boolean = false
  /** The part of an answer that the second computation must reproduce. */
  def checked(answer: Vector[Long]): Vector[Long] = answer
  /** The part of an answer that the recorded result pins. */
  def recorded(answer: Vector[Long]): Vector[Long] = answer
}

object Query {
  /** Pattern matching through `DfsEngine.run` with the G²Miner
    * configuration (orientation for cliques, edgelist reduction, buffering,
    * LGS where the pattern and the input allow it).
    */
  final case class Match(name: String, graph: String, pattern: Pattern, countingOnly: Boolean = false)
      extends Query {
    override def orients: Boolean = pattern.isClique
  }

  /** The six induced 4-motifs through one `DfsEngine.run` per motif
    * (Table 7); the 4-clique is planned non-induced and oriented.
    */
  final case class MotifsDfs(name: String, graph: String) extends Query {
    override def orients: Boolean = true
  }

  /** The six induced 4-motifs through `MotifFormulas.fourMotifs` (Table 9). */
  final case class MotifsFormula(name: String, graph: String) extends Query {
    override def orients: Boolean = true
  }

  /** 3-edge FSM through `Fsm.run` at a fixed σ with label pruning. The
    * answer is the number of supports computed, then the frequent
    * patterns' supports per edge count (see [[Answers.fsm]]).
    */
  final case class Fsm3(name: String, graph: String, sigma: Long) extends Query {
    override def checked(answer: Vector[Long]): Vector[Long] = answer.tail
    /** Frequent patterns, supports computed and the frequent patterns' support total. */
    override def recorded(answer: Vector[Long]): Vector[Long] = {
      val frequent = Answers.fsmFrequent(answer.tail)
      Vector(frequent, answer.head, answer.tail.sum - frequent)
    }
  }
}

/** A named set of queries over graphs built fresh from the seed.
  *
  * @param scale    share of the `DataGraphs` size the graphs are built at
  * @param recorded `q.recorded` of each query's answer, by query name; the
  *                 same at every seed, since seeds only permute vertex ids
  */
final case class Workload(name: String, scale: Double, graphs: Seq[GraphSpec], queries: Seq[Query],
                          recorded: Map[String, Vector[Long]]) {
  def graphSpecs: Seq[GraphSpec] = graphs.map(_.scaled(scale))
  def oriented: Set[String] = queries.filter(_.orients).map(_.graph).toSet
}

object Workloads {
  import Query._

  // The recorded answers below are the results at each workload's scale;
  // a run fails a query whose answer differs.

  /** The 4-motif time of one Lj analog follows the degree of its largest
    * hub, whose LGS task is the critical path; three independent analogs
    * keep that skew in every query without one hub setting the total.
    */
  val LjInstances = 3

  val motif4Lj: Workload = {
    val ljs = (0 until LjInstances).map(GraphSpecs.lj.instance)
    Workload("motif4-lj", 0.2, ljs,
      ljs.map(g => MotifsDfs(s"4-MC/${g.name}", g.name)),
      Map(
        "4-MC/Lj.0" -> Vector(27845439L, 8647220L, 4802026L, 100111L, 378229L, 98730L),
        "4-MC/Lj.1" -> Vector(23129616L, 8451741L, 4298638L, 99245L, 350486L, 96544L),
        "4-MC/Lj.2" -> Vector(24078551L, 8309852L, 4143273L, 93420L, 325292L, 93945L),
      ))
  }

  val cliqueSlMix: Workload = Workload("clique-sl-mix", 0.25,
    Seq(GraphSpecs.uk, GraphSpecs.tw4, GraphSpecs.or),
    Seq(
      Match("TC/Uk", "Uk", Patterns.triangle),
      Match("4-CL/Tw4", "Tw4", Patterns.clique(4)),
      Match("5-CL/Or", "Or", Patterns.clique(5)),
      Match("dia/Tw4", "Tw4", Patterns.diamond),
      Match("dia-count/Tw4", "Tw4", Patterns.diamond, countingOnly = true),
      Match("c4/Or", "Or", Patterns.cycle4),
      MotifsFormula("4-MC-formula/Or", "Or"),
    ),
    Map(
      "TC/Uk" -> Vector(405835L),
      "4-CL/Tw4" -> Vector(4815812L),
      "5-CL/Or" -> Vector(1127761L),
      "dia/Tw4" -> Vector(105560339L),
      "dia-count/Tw4" -> Vector(105560339L),
      "c4/Or" -> Vector(7687053L),
      "4-MC-formula/Or" -> Vector(108178316L, 61181283L, 35309922L, 1700646L, 4646934L, 446491L),
    ))

  /** σ is fixed here rather than taken from `Tables.scaledSigma`, whose
    * scaling is due to change.
    */
  val Sigma = 4L

  val fsm3Mi: Workload = Workload("fsm3-mi", 0.4, Seq(GraphSpecs.mi),
    Seq(Fsm3("3-FSM/Mi", "Mi", Sigma)),
    Map("3-FSM/Mi" -> Vector(1725L, 7484L, 11280L)))

  val all: Seq[Workload] = Seq(motif4Lj, cliqueSlMix, fsm3Mi)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** Encodings of query results as comparable count vectors. */
object Answers {

  /** Frequent patterns compared by their supports per edge count, not by
    * pattern-code strings: for each edge count 1..maxEdges, the number of
    * frequent patterns followed by their supports in ascending order.
    */
  def fsm(frequent: Map[String, Long], maxEdges: Int): Vector[Long] = {
    val byEdges = frequent.toSeq.groupMap { case (code, _) => edgeCount(code) }(_._2)
    (1 to maxEdges).toVector.flatMap { k =>
      val s = byEdges.getOrElse(k, Nil).sorted.toVector
      s.length.toLong +: s
    }
  }

  /** Number of frequent patterns in an [[fsm]] encoding. */
  def fsmFrequent(enc: Vector[Long]): Long = {
    var i = 0; var total = 0L
    while (i < enc.length) { val c = enc(i); total += c; i += 1 + c.toInt }
    total
  }

  /** Edges of a canonical pattern code `n|bits:labels`. */
  def edgeCount(code: String): Int = repro.fsm.Fsm.decodePattern(code).numEdges

  /** Induced 4-motif counts in `Patterns.motifs(4)` order. */
  def motifs(induced: Seq[(Pattern, Long)]): Vector[Long] =
    Patterns.motifs(4).map(m => induced.collectFirst { case (p, c) if p.isomorphicTo(m) => c }
      .getOrElse(sys.error(s"motif $m missing")))
}
