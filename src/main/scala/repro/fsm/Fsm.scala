package repro.fsm

import scala.collection.mutable
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.graph.CSRGraph
import repro.pattern.{Pattern, Patterns}

/** Frequent Subgraph Mining (k-FSM) by edge extension with MNI ("domain")
  * support, the paper's §5.2/§7.2 workload.
  *
  * Embeddings grow one edge per level over a broadcast CSR. Each Spark
  * partition holds one block of packed embeddings (bounded BFS,
  * optimization M) and extends the embeddings of frequent patterns in
  * place, so nothing is shuffled. Every connected edge subset is produced
  * once, from one canonical parent (reverse search): a child S = P + e is
  * kept only if e is the largest data edge among the edges e' of S whose
  * removal leaves a connected subset of a pattern frequent one level down.
  * Each partition returns, per pattern, the data vertices seen at each
  * automorphism orbit; the driver unions them, and the support is the
  * smallest orbit domain (GraMi's MNI). Label-frequency pruning
  * (optimization N) removes vertices whose label cannot appear in any
  * frequent pattern.
  */
object Fsm {

  final case class FsmConfig(minSupport: Long, maxEdges: Int = 3, labelPruning: Boolean = true)

  final case class FsmMetrics(
      levelEmbeddings: Vector[Long],    // canonical embeddings per level
      extensionWork: Long,              // neighbor scans performed
      candidatePatterns: Vector[Int],   // patterns examined per level
      frequentPatterns: Vector[Int],    // patterns surviving per level
      numLabels: Int,
      numFrequentLabels: Int,
  )

  /** @param frequent    patterns with support >= cfg.minSupport
    * @param allSupports exact supports of every candidate pattern reached
    *                    during the mining run — by anti-monotonicity, the
    *                    frequent set for any σ' >= cfg.minSupport is
    *                    `allSupports.filter(_._2 >= σ')`
    */
  final case class FsmResult(frequent: Map[String, Long], allSupports: Map[String, Long],
                             metrics: FsmMetrics)

  /** One partition's embeddings at one level. Embedding e is the `stride`
    * ints from `e * stride`: its pattern's index into `codes`, then its
    * data vertices in canonical position order. `orbits(p)(i)` is the
    * smallest position in the automorphism orbit of position i of pattern p.
    */
  private final case class Block(codes: Array[String], orbits: Array[Array[Int]], stride: Int, data: Array[Int])

  /** An isomorphism from `a` onto `b`: position i of `a` is position
    * `iso(i)` of `b`. Any one serves: MNI domains are unions over orbits.
    */
  private def isomorphism(a: Pattern, b: Pattern): Array[Int] =
    (0 until a.n).permutations.find { phi =>
      (0 until a.n).forall { i =>
        a.labels.get(i) == b.labels.get(phi(i)) &&
          (0 until a.n).forall(j => a.isEdge(i, j) == b.isEdge(phi(i), phi(j)))
      }
    }.get.toArray

  /** `p` without its edge (i, j), dropping a vertex the removal isolates;
    * None if what is left is disconnected.
    */
  private def without(p: Pattern, i: Int, j: Int): Option[Pattern] = {
    val es = p.edges.filterNot(_ == ((i, j)))
    val keep = (0 until p.n).filter(v => es.exists(e => e._1 == v || e._2 == v))
    val at = keep.zipWithIndex.toMap
    val q = Patterns.fromEdges(keep.length, es.map(e => (at(e._1), at(e._2))), p.labels.map(ls => keep.map(ls).toVector))
    Some(q).filter(_.isConnected)
  }

  /** An undirected data edge as a Long, ordered by (min, max). */
  @inline private def edgeKey(a: Int, b: Int): Long =
    (math.min(a, b).toLong << 32) | math.max(a, b)

  /** Grows blocks by one edge on one task. Pattern machinery is cached per
    * canonical code.
    *
    * @param frequent codes frequent at the level being extended
    */
  private final class Grower(g: CSRGraph, frequent: Set[String]) {

    private final class Ext(val shape: Shape, val iso: Array[Int])

    private final class Shape(val code: String) {
      val p: Pattern = decodePattern(code)
      val orbit: Array[Int] = {
        val auts = p.automorphisms
        Array.tabulate(p.n)(i => auts.map(_(i)).min)
      }
      /** Canonical edges (parentI(q), parentJ(q)) whose removal leaves a
        * connected subset of a frequent pattern: the edges by which a
        * canonical parent may have grown into this shape.
        */
      lazy val (parentI, parentJ) = p.edges
        .filter { case (i, j) => without(p, i, j).exists(q => frequent(q.canonicalCode)) }
        .toArray.unzip
      private val exts = mutable.LongMap.empty[Ext]

      /** Add edge (i, j); j == p.n is a new vertex labeled `label`. */
      def extend(i: Int, j: Int, label: Int): Ext =
        exts.getOrElseUpdate(((i * 16 + j).toLong << 32) | (label & 0xffffffffL), {
          val grown = p.withEdge(i, j)
          resolve(if (j < p.n) grown else grown.copy(labels = Some(p.labels.get :+ label)))
        })
    }

    private val shapes = mutable.HashMap.empty[String, Shape]
    private def shape(code: String): Shape = shapes.getOrElseUpdate(code, new Shape(code))
    private def resolve(grown: Pattern): Ext = {
      val s = shape(grown.canonicalCode)
      new Ext(s, isomorphism(s.p, grown))
    }

    private final class Out(stride: Int) {
      private val index = mutable.LinkedHashMap.empty[Shape, Int]
      private val data = new mutable.ArrayBuilder.ofInt
      def add(s: Shape, t: Array[Int]): Unit = {
        data += index.getOrElseUpdate(s, index.size)
        var c = 0
        while (c < stride - 1) { data += (if (c < s.p.n) t(c) else -1); c += 1 }
      }
      def result: Block = {
        val ss = index.keys.toArray
        Block(ss.map(_.code), ss.map(_.orbit), stride, data.result())
      }
    }

    /** Level 1: slice `part` of `parts` of the canonical edges. */
    def first(part: Int, parts: Int): Block = {
      val es = g.canonicalEdges
      val out = new Out(3)
      val byLabels = mutable.HashMap.empty[(Int, Int), Ext]
      val t = new Array[Int](2)
      for (x <- (es.length.toLong * part / parts).toInt until (es.length.toLong * (part + 1) / parts).toInt) {
        val (u, v) = ((es(x) >>> 32).toInt, es(x).toInt)
        val (lu, lv) = (g.label(u), g.label(v))
        val ext = byLabels.getOrElseUpdate((lu, lv), resolve(Patterns.fromEdges(2, Seq((0, 1)), Some(Vector(lu, lv)))))
        t(0) = if (ext.iso(0) == 0) u else v
        t(1) = if (ext.iso(1) == 0) u else v
        out.add(ext.shape, t)
      }
      out.result
    }

    /** The next level: every canonical child of each embedding of a
      * frequent pattern in `b`.
      */
    def grow(b: Block): Block = {
      val parents = b.codes.map(c => if (frequent(c)) shape(c) else null)
      val out = new Out(b.stride + 1)
      val vs = new Array[Int](b.stride - 1)
      val t = new Array[Int](b.stride)

      // keep the child iff the added edge (a, w) is its largest parent edge
      def emit(ext: Ext, n: Int, a: Int, w: Int): Unit = {
        var c = 0
        while (c < ext.iso.length) { t(c) = if (ext.iso(c) == n) w else vs(ext.iso(c)); c += 1 }
        val (pi, pj) = (ext.shape.parentI, ext.shape.parentJ)
        val key = edgeKey(a, w)
        var q = 0
        while (q < pi.length && edgeKey(t(pi(q)), t(pj(q))) <= key) q += 1
        if (q == pi.length) out.add(ext.shape, t)
      }

      var e = 0
      while (e < b.data.length) {
        val s = parents(b.data(e))
        if (s != null) {
          val n = s.p.n
          System.arraycopy(b.data, e + 1, vs, 0, n)
          var i = 0
          while (i < n) {
            val dv = vs(i)
            var x = g.nbrStart(dv)
            while (x < g.nbrEnd(dv)) {
              val w = g.nbrs(x)
              var j = 0
              while (j < n && vs(j) != w) j += 1
              if (j == n) emit(s.extend(i, n, g.label(w)), n, dv, w)
              else if (i < j && !s.p.isEdge(i, j)) emit(s.extend(i, j, -1), n, dv, w)
              x += 1
            }
            i += 1
          }
        }
        e += b.stride
      }
      out.result
    }
  }

  /** `a` sorted, without repeated values (sorts `a` in place). */
  private def sortedSet(a: Array[Int]): Array[Int] = {
    java.util.Arrays.sort(a)
    var n = 0
    for (x <- a.indices) if (x == 0 || a(x) != a(x - 1)) { a(n) = a(x); n += 1 }
    java.util.Arrays.copyOf(a, n)
  }

  /** A block's embedding count and, per pattern code, the data vertices
    * seen at each orbit (one sorted set per orbit, in orbit order).
    */
  private def domains(b: Block): (Long, Map[String, Array[Array[Int]]]) = {
    val seen = b.orbits.map(o => Array.fill(o.length)(new mutable.ArrayBuilder.ofInt))
    var e = 0
    while (e < b.data.length) {
      val p = b.data(e)
      val orbit = b.orbits(p)
      var i = 0
      while (i < orbit.length) { seen(p)(orbit(i)) += b.data(e + 1 + i); i += 1 }
      e += b.stride
    }
    val byCode = b.codes.indices.map { p =>
      b.codes(p) -> b.orbits(p).indices.filter(i => b.orbits(p)(i) == i).map(i => sortedSet(seen(p)(i).result())).toArray
    }
    (b.data.length.toLong / b.stride, byCode.toMap)
  }

  def run(spark: SparkSession, g: CSRGraph, cfg: FsmConfig): FsmResult = {
    require(g.labeled, "FSM requires a labeled graph")

    // --- optimization N: label-frequency pruning ----------------------
    val labelFreq: Map[Int, Long] = g.labels.groupMapReduce(identity)(_ => 1L)(_ + _)
    val frequentLabels = labelFreq.filter(_._2 >= cfg.minSupport).keySet
    val mineGraph =
      if (!cfg.labelPruning) g
      else {
        // drop vertices whose label is infrequent: no frequent pattern can
        // contain them (its MNI would be capped below the threshold)
        val keep = (0 until g.n).filter(v => frequentLabels.contains(g.label(v))).toArray
        val newId = Array.fill(g.n)(-1)
        keep.zipWithIndex.foreach { case (old, nw) => newId(old) = nw }
        val es = g.canonicalEdges.flatMap { e =>
          val u = newId((e >>> 32).toInt); val v = newId((e & 0xffffffffL).toInt)
          if (u >= 0 && v >= 0) Some((u, v)) else None
        }
        CSRGraph.fromEdges(keep.length, es.toIndexedSeq, keep.map(g.label))
      }

    val sc = spark.sparkContext
    val bc = sc.broadcast(mineGraph)
    val parts = math.max(1, sc.defaultParallelism)
    val cached = mutable.ArrayBuffer.empty[RDD[Block]]
    var allSupports = Map.empty[String, Long]
    var levelEmb = Vector.empty[Long]
    var candPats = Vector.empty[Int]
    var freqPats = Vector.empty[Int]
    var extWork = 0L
    try {
      var cur = sc.parallelize(0 until parts, parts).map(p => new Grower(bc.value, Set.empty).first(p, parts))
      var freqCodes = Set.empty[String]
      for (level <- 1 to cfg.maxEdges) {
        if (level > 1) { val fc = freqCodes; cur = cur.map(b => new Grower(bc.value, fc).grow(b)) }
        // the next level grows from this one's blocks where they are
        if (level < cfg.maxEdges) cached += cur.persist()
        val doms = cur.map(domains).collect()
        val sup = doms.flatMap(_._2).groupMap(_._1)(_._2).map { case (code, ds) =>
          code -> ds.head.indices.map(o => sortedSet(ds.flatMap(_(o))).length.toLong).min
        }
        extWork += (if (level == 1) mineGraph.numArcs.toLong else estimateExtensionWork(levelEmb.last, mineGraph))
        levelEmb = levelEmb :+ doms.map(_._1).sum
        candPats = candPats :+ sup.size
        freqCodes = sup.filter(_._2 >= cfg.minSupport).keySet
        freqPats = freqPats :+ freqCodes.size
        allSupports ++= sup
      }
    } finally {
      cached.foreach(_.unpersist())
      bc.destroy()
    }

    FsmResult(
      allSupports.filter(_._2 >= cfg.minSupport),
      allSupports,
      FsmMetrics(levelEmb, extWork, candPats, freqPats, labelFreq.size, frequentLabels.size),
    )
  }

  /** Extension work is one neighbor scan per (embedding, position): the
    * average degree times vertices per embedding.
    */
  private def estimateExtensionWork(embeddings: Long, g: CSRGraph): Long =
    embeddings * 3L * math.max(1L, 2L * g.numEdges / math.max(1, g.n))

  def singleEdgePattern(la: Int, lb: Int): Pattern = {
    val (a, b) = (math.min(la, lb), math.max(la, lb))
    Patterns.fromEdges(2, Seq((0, 1)), Some(Vector(a, b)))
  }

  /** Rebuild a Pattern from its canonical code `n|bits:labels`. */
  def decodePattern(code: String): Pattern = {
    val Array(head, rest) = code.split("\\|", 2)
    val n = head.toInt
    val (bits, labels) = rest.split(":", 2) match {
      case Array(b, l) => (b, Some(l.split(",").map(_.toInt).toVector))
      case Array(b)    => (b, None)
    }
    val pairs = for { u <- 0 until n; v <- u + 1 until n } yield (u, v)
    val es = pairs.zip(bits).collect { case (e, '1') => e }
    Patterns.fromEdges(n, es, labels)
  }
}
