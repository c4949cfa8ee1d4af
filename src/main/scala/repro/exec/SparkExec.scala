package repro.exec

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.cmds.Kernels
import repro.cmds.Kernels.Ctx
import repro.core.Dfg._
import repro.core.PClass

/** Spark executor for PaSh DFGs (repro band: distributed_dataflow).
  *
  * Stream order is semantic in the shell, so edges are `RDD[String]` whose
  * (partitionIndex, withinPartitionOffset) order *is* the byte-stream
  * order — exactly the layer where Spark preserves order through narrow
  * transformations. Mapping:
  *
  *  - (S) command  → `mapPartitions` with the shared per-line kernel
  *    (parallel across however many chunk-partitions feed it);
  *  - `cat`        → `union` (partition concatenation, order-preserving);
  *  - (P)/(N) node → order-preserving gather to one task (a stage boundary
  *    when the input has several partitions — Spark's analogue of PaSh's
  *    single aggregator process) + whole-stream kernel;
  *  - map replica  → whole-stream kernel over its chunk;
  *  - aggregate    → the tree's leaves cached in one parallel job, then one
  *    n-ary merge task with the shared aggregator;
  *  - `split`      → the input cached as one block (an `Array[String]`);
  *    chunk i slices lines [n·i/w, n·(i+1)/w) out of it (faithful to PaSh's
  *    line-counting split, which also consumes its whole input before
  *    dispersing it);
  *  - relay        → identity (Spark tasks have no shell laziness; the
  *    eager/blocking distinction is studied on the discrete-event
  *    simulator instead — DESIGN.md).
  *
  * The *sequential baseline* is the untransformed DFG: every node sees a
  * 1-partition stream, so the whole region collapses into a single-core
  * task chain, like `sh` on one CPU.
  */
final class SparkExec(spark: SparkSession, store: Store) {

  private val sc = spark.sparkContext

  private val persisted = collection.mutable.ListBuffer.empty[RDD[_]]

  /** The stream as blocks: one `Array[String]` per partition, cached, so
    * Spark's memory store sizes one array per partition, not every line. */
  private def cacheBlocks(rdd: RDD[String]): RDD[Array[String]] = {
    val blocks = rdd.mapPartitions(it => Iterator.single(it.toArray))
      .persist(StorageLevel.MEMORY_AND_DISK)
    persisted += blocks
    blocks
  }

  /** Stage boundary: cache the given streams as blocks and force them in
    * ONE parallel job, so each chunk's upstream kernel chain runs as its
    * own task; downstream narrow consumers then read the in-process cache
    * (cheaper than a shuffle in local mode). */
  private def materialize(streams: List[RDD[String]]): List[RDD[Array[String]]] = {
    val cached = streams.map(cacheBlocks)
    (cached match {
      case one :: Nil => one
      case many       => sc.union(many)
    }).count()
    cached
  }

  /** A one-partition stream stays lazy (its chain runs inside the consumer's
    * task); a wider one crosses a stage boundary. */
  private def blocksOf(rdd: RDD[String]): RDD[Array[String]] =
    if (rdd.getNumPartitions <= 1) rdd.mapPartitions(it => Iterator.single(it.toArray))
    else materialize(List(rdd)).head

  /** Order-preserving gather of a stream into one partition. */
  private def gather(rdd: RDD[String]): RDD[String] =
    if (rdd.getNumPartitions <= 1) rdd else merge(List(blocksOf(rdd)))(_.head)

  /** One task runs `f` over the streams, each stream's blocks concatenated
    * in partition order. Blocks are tagged (stream, partition) and sorted in
    * the task, so order does not rest on `coalesce` keeping its parents'. */
  private def merge(streams: List[RDD[Array[String]]])(
      f: List[Vector[String]] => Vector[String]): RDD[String] = {
    val n = streams.size
    val tagged = streams.zipWithIndex.map { case (s, i) =>
      s.mapPartitionsWithIndex((p, it) => it.map(a => ((i, p), a)))
    }
    val one = tagged match {
      case Nil => sc.parallelize(Seq.empty[((Int, Int), Array[String])], 1)
      case t :: Nil if t.getNumPartitions == 1 => t
      case many => sc.union(many).coalesce(1)
    }
    one.mapPartitions { it =>
      val parts = Array.fill(n)(Vector.newBuilder[String])
      it.toArray.sortBy(_._1).foreach { case ((i, _), a) => parts(i) ++= a }
      f(parts.iterator.map(_.result()).toList).iterator
    }
  }

  /** Evaluate a region; returns stdout/file-sink RDDs (not yet collected). */
  def eval(g: Graph): (List[RDD[String]], Map[String, RDD[String]]) = {
    val fetch  = store.fetchFn
    val values = collection.mutable.Map.empty[Int, RDD[String]]

    def edgeIn(e: DEdge): RDD[String] = e.src match {
      case Some(SrcFile(f))           => store.rdd(f)
      case Some(SrcFilePart(f, i, o)) => store.rddPart(f, i, o)
      case None                       => values(e.id)
    }

    // Maximal same-key aggregate trees are evaluated at their root as ONE
    // n-ary merge task (aggregators are associative; Kernels.aggN) — the
    // map replicas upstream become one parallel shuffle-map stage and the
    // whole merge is a single pass instead of a cascade of pairwise
    // merges. Internal tree aggs (and the relays wired between levels)
    // are skipped.
    def producerOf(e: Int): Option[DNode] = g.edges(e).from.map(g.nodes)
    val internalAggs: Set[Int] = g.nodes.values.collect {
      case DNode(_, AggOp(key, _), ins, _) =>
        ins.flatMap { e0 =>
          def chase(e: Int): Option[Int] = producerOf(e) match {
            case Some(DNode(_, RelayOp(_, _), rins, _)) => chase(rins.head)
            case Some(DNode(pid, AggOp(k2, _), _, _)) if k2 == key => Some(pid)
            case _ => None
          }
          chase(e0)
        }
    }.flatten.toSet

    g.topo.foreach { n =>
      val inEdges = n.ins.map(g.edges)
      // statics are small configuration inputs (dictionaries): driver-side
      val statics = inEdges.filter(_.static).map(e => e.src match {
        case Some(SrcFile(f))           => store.fetch(f)
        case Some(SrcFilePart(f, i, o)) => store.fetchPart(f, i, o)
        case None                       => values(e.id).collect().toVector
      }).toList
      val streams = inEdges.filterNot(_.static).map(edgeIn).toList
      val ctx     = Ctx(statics, fetch)

      val outs: Vector[RDD[String]] = n.op match {
        case CmdOp(r) if r.cls == PClass.Stateless =>
          // parallel per-line kernel across all chunk partitions
          val in = streams.head
          Kernels.stateless(r) match {
            case Some(mk) =>
              Vector(in.mapPartitions({ it =>
                val f = mk(ctx); it.flatMap(l => f(l))
              }, preservesPartitioning = true))
            case None =>
              // stateless law ⇒ whole-kernel per partition is equivalent
              Vector(in.mapPartitions({ it =>
                Kernels.whole(r)(ctx)(List(it.toVector)).iterator
              }, preservesPartitioning = true))
          }
        case CmdOp(r) => Vector(merge(streams.map(blocksOf))(Kernels.whole(r)(ctx)(_)))
        case MapOp(r) => Vector(merge(streams.map(blocksOf))(Kernels.whole(r)(ctx)(_)))
        case AggOp(_, _) if internalAggs.contains(n.id) =>
          Vector(null) // folded into the tree root's n-ary merge

        case AggOp(key, r) =>
          // in-order leaves of the maximal same-key aggregate tree
          def leavesOf(node: DNode): Vector[Int] =
            node.ins.filterNot(e => g.edges(e).static).flatMap(leafOf)
          def leafOf(e: Int): Vector[Int] = producerOf(e) match {
            case Some(DNode(_, RelayOp(_, _), rins, _)) => leafOf(rins.head)
            case Some(p @ DNode(_, AggOp(k2, _), _, _)) if k2 == key => leavesOf(p)
            case _ => Vector(e)
          }
          val leafEdges = leavesOf(n)
          // one parallel job materializes every map replica, then a single
          // narrow task runs the n-ary merge over the cached chunks
          val cached = materialize(leafEdges.toList.map(e => edgeIn(g.edges(e))))
          Vector(merge(cached)(parts => Kernels.aggN(key, r, parts)))
        case SplitOp(w) =>
          // PaSh's split consumes its whole input, then disperses contiguous
          // ranges: the first chunk task fills the one-block cache, the
          // others wait on its write lock and slice the same array
          val block = cacheBlocks(gather(streams.head))
          Vector.tabulate(w) { i =>
            block.mapPartitions { it =>
              val a = it.next()
              val n = a.length.toLong
              Iterator.range((n * i / w).toInt, (n * (i + 1) / w).toInt).map(a(_))
            }
          }
        case CatOp =>
          Vector(streams match {
            case s :: Nil => s
            case many     => sc.union(many)
          })
        case RelayOp(_, _) => Vector(streams.head)
      }
      n.outs.zip(outs).foreach { case (e, v) => values(e) = v }
    }

    val stdout = List.newBuilder[RDD[String]]
    val sinks  = Map.newBuilder[String, RDD[String]]
    g.outputs.foreach { e =>
      val v = values.getOrElse(e.id, sc.parallelize(Seq.empty[String], 1))
      e.sink match {
        case Some(f) => sinks += f -> v
        case None    => stdout += v
      }
    }
    (stdout.result(), sinks.result())
  }

  /** Run one region and collect results (order = partition order). */
  def run(g: Graph): RefExec.Out = {
    val (stdouts, sinks) = eval(g)
    val out = RefExec.Out(
      stdouts.flatMap(_.collect()).toVector,
      sinks.map { case (f, r) => f -> r.collect().toVector },
    )
    releaseCaches()
    out
  }

  /** Run a program region-by-region; sinks feed later regions via store. */
  def runProgram(regions: List[Graph]): RefExec.Out = {
    val stdout = Vector.newBuilder[String]
    val files  = collection.mutable.Map.empty[String, Vector[String]]
    regions.foreach { g =>
      val o = run(g)
      stdout ++= o.stdout
      o.files.foreach { case (f, v) => files(f) = v; store.addLines(f, v) }
    }
    RefExec.Out(stdout.result(), files.toMap)
  }

  private def releaseCaches(): Unit = {
    persisted.foreach(_.unpersist(blocking = false))
    persisted.clear()
  }
}
