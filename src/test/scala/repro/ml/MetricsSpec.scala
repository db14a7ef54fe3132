package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("perfect predictions give 1.0 everywhere") {
    val y = Seq("a", "b", "a", "b")
    val per = Metrics.perClass(y, y)
    per.foreach { s =>
      assert(s.precision == 1.0 && s.recall == 1.0 && s.f1 == 1.0)
    }
    assert(Metrics.overall(y, y).f1 == 1.0)
  }

  test("all-wrong predictions give 0.0") {
    val truth = Seq("a", "a", "b", "b")
    val pred = Seq("b", "b", "a", "a")
    val o = Metrics.overall(truth, pred)
    assert(o.precision == 0.0 && o.recall == 0.0 && o.f1 == 0.0)
  }

  test("hand-computed binary example") {
    // class a: tp=2 fp=1 fn=1 → p=2/3 r=2/3 f1=2/3
    val truth = Seq("a", "a", "a", "b", "b", "b")
    val pred  = Seq("a", "a", "b", "a", "b", "b")
    val a = Metrics.perClass(truth, pred).find(_.label == "a").get
    assert(math.abs(a.precision - 2.0 / 3) < 1e-12)
    assert(math.abs(a.recall - 2.0 / 3) < 1e-12)
    assert(math.abs(a.f1 - 2.0 / 3) < 1e-12)
  }

  test("support counts class frequencies in truth") {
    val truth = Seq("a", "a", "a", "b")
    val pred = Seq("a", "a", "a", "b")
    val per = Metrics.perClass(truth, pred)
    assert(per.find(_.label == "a").get.support == 3)
    assert(per.find(_.label == "b").get.support == 1)
  }

  test("abstaining (unknown) predictions cost recall but not precision") {
    val truth = Seq("a", "a", "a", "a")
    val pred = Seq("a", "a", "unknown", "unknown")
    val a = Metrics.perClass(truth, pred).find(_.label == "a").get
    assert(a.precision == 1.0)
    assert(a.recall == 0.5)
  }

  test("unknown never appears as a scored class when absent from truth") {
    val truth = Seq("a", "b")
    val pred = Seq("unknown", "unknown")
    assert(!Metrics.perClass(truth, pred).exists(_.label == "unknown"))
  }

  test("overall is support-weighted") {
    // class a (3 samples) perfect; class b (1 sample) missed
    val truth = Seq("a", "a", "a", "b")
    val pred = Seq("a", "a", "a", "a")
    val o = Metrics.overall(truth, pred)
    assert(math.abs(o.recall - 0.75) < 1e-12) // (1.0*3 + 0*1)/4
  }

  test("f1 is 0 when precision and recall are both 0") {
    val truth = Seq("a", "b")
    val pred = Seq("b", "a")
    Metrics.perClass(truth, pred).foreach(s => assert(s.f1 == 0.0))
  }

  test("report appends the overall row") {
    val truth = Seq("a", "b")
    val pred = Seq("a", "b")
    val r = Metrics.report(truth, pred)
    assert(r.last.label == "overall")
    assert(r.length == 3)
  }

  test("length mismatch throws") {
    intercept[IllegalArgumentException] {
      Metrics.perClass(Seq("a"), Seq("a", "b"))
    }
  }

  test("three-class macro behaviour sanity") {
    val truth = Seq("a", "b", "c", "a", "b", "c")
    val pred  = Seq("a", "b", "c", "b", "c", "a")
    val per = Metrics.perClass(truth, pred)
    assert(per.length == 3)
    per.foreach(s => assert(s.precision == 0.5 && s.recall == 0.5))
  }
}
