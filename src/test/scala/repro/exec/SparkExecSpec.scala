package repro.exec

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.SparkSpec
import repro.bench.Scripts
import repro.bench.Scripts.ScriptBench
import repro.core.{Dfg, Frontend, Transform}
import repro.core.Dfg.{CatOp, SplitOp, SrcFile, SrcFilePart}
import repro.core.Transform.PashConfig

/** Spark executor correctness: for every evaluation script,
  *
  *   SparkExec(parallelized, width) == SparkExec(original) == RefExec(original)
  *
  * i.e. the distributed execution of the transformed DFG reproduces the
  * golden sequential semantics byte-for-byte, including stream order.
  */
class SparkExecSpec extends SparkSpec {

  private def freshStore(b: ScriptBench, scale: Int): Store = {
    val s = new Store(spark.sparkContext); b.setup(s, scale); s
  }

  private def check(b: ScriptBench, widths: List[Int], scale: Int = 2): Unit = {
    val regions = Frontend.compile(b.script).regions
    val golden  = RefExec.runProgram(regions, freshStore(b, scale))
    val sparkSeq = new SparkExec(spark, freshStore(b, scale)).runProgram(regions)
    assert(sparkSeq.stdout == golden.stdout, s"${b.name}: spark sequential stdout differs")
    assert(sparkSeq.files == golden.files, s"${b.name}: spark sequential sinks differ")
    widths.foreach { w =>
      val sparkPar = new SparkExec(spark, freshStore(b, scale))
        .runProgram(regions.map(Transform.parallelize(_, PashConfig(w))))
      assert(sparkPar.stdout == golden.stdout, s"${b.name} width=$w: stdout differs")
      assert(sparkPar.files == golden.files, s"${b.name} width=$w: sinks differ")
    }
  }

  // §6.1 one-liners on Spark, sequential + widths {2, 4}
  Scripts.oneLiners.foreach { b =>
    test(s"spark ${b.name}: parallel == sequential == reference") {
      check(b, List(2, 4))
    }
  }

  // a representative Unix50 slice on Spark (full set runs on RefExec)
  List(0, 4, 6, 9, 14, 18, 24, 26, 30).foreach { i =>
    val b = Scripts.unix50(i)
    test(s"spark ${b.name}: parallel == sequential == reference") {
      check(b, List(3))
    }
  }

  test("spark noaa: parallel == sequential == reference") {
    check(Scripts.noaa, List(2, 4), scale = 8)
  }
  test("spark wikipedia: parallel == sequential == reference") {
    check(Scripts.wikipedia, List(2, 4), scale = 6)
  }
  test("spark bio: parallel == sequential == reference") {
    check(Scripts.bio, List(2, 4))
  }

  test("spark naive chunk-and-concat corrupts wf (§6.5 GNU-parallel misuse)") {
    val b = Scripts.wf
    val regions = Frontend.compile(b.script).regions
    val golden = RefExec.runProgram(regions, freshStore(b, 2))
    val naive  = new SparkExec(spark, freshStore(b, 2))
      .runProgram(regions.map(Transform.naiveParallel(_, PashConfig(4))))
    assert(naive.stdout != golden.stdout)
    val diff = naive.stdout.zipAll(golden.stdout, "∅", "∅").count { case (a, c) => a != c }
    assert(diff.toDouble / golden.stdout.size.max(1) > 0.5,
      s"expected large corruption, got $diff/${golden.stdout.size}")
  }

  // Small inputs at every width up to 9: widths above the line count leave
  // some chunks and split slices empty, and the merges must still agree.
  private val tiny = Vector("3 b", "10 a", "3 b", "-1 c", "b a")
  List(
    "sort"    -> "cat in.txt | sort",
    "sort -rn" -> "cat in.txt | sort -rn",
    "sort -u" -> "cat in.txt | sort -u",
    "uniq -c" -> "cat in.txt | sort | uniq -c",
    "wf"      -> Scripts.wf.script,
  ).foreach { case (name, script) =>
    test(s"spark $name on 0, 1, 2 and 5 lines at widths 1..9 == reference") {
      val regions = Frontend.compile(script).regions
      List(0, 1, 2, 5).foreach { n =>
        def store = new Store(spark.sparkContext).addLines("in.txt", tiny.take(n))
        val golden = RefExec.runProgram(regions, store)
        (1 to 9).foreach { w =>
          val par = new SparkExec(spark, store)
            .runProgram(regions.map(Transform.parallelize(_, PashConfig(w))))
          assert(par.stdout == golden.stdout, s"$name, $n lines, width=$w")
        }
      }
    }
  }

  test("split reads its input once, gathers several partitions, slices contiguously") {
    val lines = Vector.tabulate(10)(i => s"line-$i")
    val reads = spark.sparkContext.longAccumulator("generated lines")
    val store = new Store(spark.sparkContext).add("f", 10, { i => reads.add(1); lines(i.toInt) })
    for (readParts <- List(1, 3); w <- List(1, 3, 4, 12)) {
      val b = new Dfg.Builder
      val whole =
        if (readParts == 1) b.freshEdge(Some(SrcFile("f")))
        else {
          val parts = Vector.tabulate(readParts)(i => b.freshEdge(Some(SrcFilePart("f", i, readParts))))
          val e = b.freshEdge()
          b.addNode(CatOp, parts, Vector(e))
          e
        }
      val chunks = Vector.fill(w)(b.freshEdge())
      b.addNode(SplitOp(w), Vector(whole), chunks)
      chunks.zipWithIndex.foreach { case (e, i) => b.setSink(e, s"chunk-$i") }
      reads.reset()
      val out = new SparkExec(spark, store).run(b.result())
      val expected = Vector.tabulate(w)(i => lines.slice(10 * i / w, 10 * (i + 1) / w))
      val ctx = s"$readParts read partitions, width=$w"
      assert(Vector.tabulate(w)(i => out.files(s"chunk-$i")) == expected, ctx)
      assert(reads.sum == 10, ctx)
    }
  }

  test("parallel wf at width 4 runs 4 Spark jobs: three aggregate merges and the collect") {
    val b       = Scripts.wf
    val store   = freshStore(b, 2)
    val regions = Frontend.compile(b.script).regions.map(Transform.parallelize(_, PashConfig(4)))
    val exec    = new SparkExec(spark, store)
    val sc      = spark.sparkContext
    // A marker job posted after the run: once the listener sees it, every
    // earlier event on the bus has been delivered.
    val jobs   = new AtomicInteger
    val marked = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("repro.marker") != null)) marked.countDown()
        else jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      exec.runProgram(regions)
      sc.setLocalProperty("repro.marker", "1")
      sc.parallelize(Seq(1), 1).count()
      assert(marked.await(30, TimeUnit.SECONDS))
    } finally {
      sc.setLocalProperty("repro.marker", null)
      sc.removeSparkListener(listener)
    }
    assert(jobs.get == 4)
  }

  test("chunked file reads preserve order (rddPart concatenation)") {
    val s = new Store(spark.sparkContext)
    s.add("f", 1000, i => s"line-$i")
    val whole = s.rdd("f", 1).collect().toVector
    val parts = (0 until 7).flatMap(i => s.rddPart("f", i, 7).collect()).toVector
    assert(parts == whole)
  }
}
