package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.engine.{DfsConfig, DfsEngine, Metrics}
import repro.fsm.Fsm
import repro.graph.CSRGraph
import repro.mc.MotifFormulas
import repro.pattern.Patterns
import repro.plan.{Planner, SearchPlan}

/** The benchmark's hook around each call it makes into a program layer.
  * Untraced runs call straight through; the traced run records a span
  * per call and tags the Spark jobs the call submits (see [[Tracer]]).
  */
trait Calls {
  /** Runs `body` as one call into `layer`; `counters` reads the layer's
    * own work counts off the result.
    */
  def counted[A](layer: String, counters: A => Seq[(String, Double)])(body: => A): A
  def apply[A](layer: String)(body: => A): A = counted[A](layer, _ => Nil)(body)
}

object Calls {
  val untraced: Calls = new Calls {
    def counted[A](layer: String, counters: A => Seq[(String, Double)])(body: => A): A = body
  }
}

/** Layer names, after the program's modules. */
object Layers {
  val GraphBuild = "graph.build"
  val GraphOrient = "graph.orient"
  val Plan = "plan"
  val Engine = "engine"
  val Mc = "mc"
  val Fsm = "fsm"
}

/** Runs queries on built graphs, through the G²Miner configuration of the
  * engines, and computes each query's answer a second way for the
  * correctness check.
  */
final class Runner(spark: SparkSession, graphs: Map[String, CSRGraph], calls: Calls) {
  import Query._

  private def engineCounters(m: Metrics): Seq[(String, Double)] = Seq(
    "tasks" -> m.tasks.toDouble,
    "tree_nodes" -> m.levelNodes.sum.toDouble,
    "matches" -> m.levelNodes.drop(1).sum.toDouble,
    "steps" -> m.setOpWork.toDouble,
    "saved_steps" -> m.bufferSavedWork.toDouble,
  )

  private def plan(p: repro.pattern.Pattern, induced: Boolean, countingOnly: Boolean = false): SearchPlan =
    calls(Layers.Plan)(Planner.plan(p, induced, countingOnly))

  private def engine(g: CSRGraph, plan: SearchPlan, cfg: DfsConfig): Long =
    calls.counted(Layers.Engine, engineCounters)(DfsEngine.run(spark, g, plan, cfg)).count

  /** Induced 4-motif counts, one DFS run per motif (cliques planned
    * non-induced, which gives the same count and enables orientation).
    */
  private def motifsByDfs(g: CSRGraph): Vector[Long] =
    Patterns.motifs(4).map(p => engine(g, plan(p, induced = !p.isClique), DfsConfig(lgs = true)))

  def answer(q: Query): Vector[Long] = q match {
    case Match(_, gn, p, co) =>
      Vector(engine(graphs(gn), plan(p, induced = false, co), DfsConfig(lgs = true, countingOnly = co)))
    case MotifsDfs(_, gn) =>
      motifsByDfs(graphs(gn))
    case MotifsFormula(_, gn) =>
      val r = calls.counted(Layers.Mc, (r: MotifFormulas.FormulaResult) => Seq("work" -> r.work.toDouble)) {
        MotifFormulas.fourMotifs(spark, graphs(gn))
      }
      Answers.motifs(r.induced)
    case Fsm3(_, gn, sigma) =>
      val r = calls.counted(Layers.Fsm, (r: Fsm.FsmResult) => Seq(
        "embeddings" -> r.metrics.levelEmbeddings.sum.toDouble,
        "frequent" -> r.metrics.frequentPatterns.sum.toDouble,
        "candidates" -> r.metrics.candidatePatterns.sum.toDouble,
      )) {
        Fsm.run(spark, graphs(gn), Fsm.FsmConfig(minSupport = sigma, maxEdges = 3))
      }
      r.allSupports.size.toLong +: Answers.fsm(r.frequent, 3)
  }

  /** The same answer by a different path, compared with
    * `q.checked(answer(q))`; called on an untraced runner.
    */
  def reference(q: Query): Vector[Long] = q match {
    case Match(_, gn, p, _) =>
      // no orientation, no edgelist reduction, no fusion, no LGS
      val m = DfsEngine.run(spark, graphs(gn), Planner.plan(p, induced = false),
        DfsConfig(orientation = false, edgelistReduction = false))
      Vector(m.count)
    case MotifsDfs(_, gn) =>
      Answers.motifs(MotifFormulas.fourMotifs(spark, graphs(gn)).induced)
    case MotifsFormula(_, gn) =>
      motifsByDfs(graphs(gn))
    case Fsm3(_, gn, sigma) =>
      val r = Fsm.run(spark, graphs(gn), Fsm.FsmConfig(minSupport = sigma, maxEdges = 3, labelPruning = false))
      Answers.fsm(r.frequent, 3)
  }
}
