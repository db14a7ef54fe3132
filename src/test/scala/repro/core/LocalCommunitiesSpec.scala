package repro.core

import repro.SparkSpec

class LocalCommunitiesSpec extends SparkSpec {
  import spark.implicits._

  /** Fig. 7 worked example: U1's friends and their inner edges. */
  private val fig7Friends = Array(2L, 3L, 4L, 5L, 6L)
  private val fig7Inner = Seq((2L, 3L), (2L, 4L), (3L, 4L), (5L, 6L), (4L, 6L))

  private def fig7Graph = Seq(
    (1L, 2L), (1L, 3L), (1L, 4L), (1L, 5L), (1L, 6L),
    (2L, 3L), (2L, 4L), (3L, 4L), (5L, 6L), (4L, 6L)).toDF("src", "dst")

  test("tightness equation 3: paper's worked values") {
    // U2, U3: 2 friends in C1, 2 in ego net, |C1|-1 = 2 → 1.0
    assert(LocalCommunities.tightness(2, 2, 3) == 1.0)
    // U4: 2 in C1, 3 in ego net (U2,U3,U6) → (2/3)*(2/2) = 0.67
    assert(math.abs(LocalCommunities.tightness(2, 3, 3) - 2.0 / 3) < 1e-12)
    // U6: 1 in C2 (U5), 2 in ego net (U5,U4) → (1/2)*(1/1) = 0.5
    assert(LocalCommunities.tightness(1, 2, 2) == 0.5)
  }

  test("singleton community tightness is 1 by definition") {
    assert(LocalCommunities.tightness(0, 0, 1) == 1.0)
  }

  test("detectOne splits Fig. 7 into C1={U2,U3,U4} and C2={U5,U6}") {
    val assigns = LocalCommunities.detectOne(1L, fig7Friends, fig7Inner)
    val byFriend = assigns.map(a => a.friend -> a).toMap
    assert(byFriend(2L).comm == byFriend(3L).comm)
    assert(byFriend(3L).comm == byFriend(4L).comm)
    assert(byFriend(5L).comm == byFriend(6L).comm)
    assert(byFriend(2L).comm != byFriend(5L).comm)
    assert(assigns.count(_.comm == byFriend(2L).comm) == 3)
    assert(assigns.count(_.comm == byFriend(5L).comm) == 2)
  }

  test("detectOne reproduces the paper's tightness values for Fig. 7") {
    val byFriend = LocalCommunities.detectOne(1L, fig7Friends, fig7Inner)
      .map(a => a.friend -> a.tightness).toMap
    assert(byFriend(2L) == 1.0)
    assert(byFriend(3L) == 1.0)
    assert(math.abs(byFriend(4L) - 2.0 / 3) < 1e-12)
    assert(byFriend(5L) == 1.0)
    assert(byFriend(6L) == 0.5)
  }

  test("friends with no inner edges become singleton communities") {
    val assigns = LocalCommunities.detectOne(1L, Array(2L, 3L, 4L), Nil)
    assert(assigns.map(_.comm).distinct.length == 3)
    assigns.foreach { a =>
      assert(assigns.count(_.comm == a.comm) == 1)
      assert(a.tightness == 1.0)
    }
  }

  test("every friend is assigned exactly once") {
    val assigns = LocalCommunities.detectOne(1L, fig7Friends, fig7Inner)
    assert(assigns.map(_.friend).sorted.toSeq == fig7Friends.toSeq)
  }

  test("distributed detect covers every (ego, friend) pair") {
    val edges = fig7Graph
    val assigns = LocalCommunities.detect(spark, edges).collect()
    assert(assigns.length == 2 * edges.count())
    assert(assigns.map(a => (a.ego, a.friend)).distinct.length == assigns.length)
  }

  test("distributed detect matches detectOne for U1's ego network") {
    val viaSpark = LocalCommunities.detect(spark, fig7Graph).collect()
      .filter(_.ego == 1L).sortBy(_.friend)
    val local = LocalCommunities.detectOne(1L, fig7Friends, fig7Inner).sortBy(_.friend)
    // community ids may be renumbered; compare partition structure + tightness
    assert(viaSpark.map(_.friend).toSeq == local.map(_.friend).toSeq)
    assert(viaSpark.map(_.tightness).toSeq == local.map(_.tightness).toSeq)
    def sizes(as: Seq[EgoAssign]) = as.map(a => as.count(_.comm == a.comm))
    assert(sizes(viaSpark.toSeq) == sizes(local))
    def partition(as: Seq[EgoAssign]) = as.groupBy(_.comm).values.map(_.map(_.friend).toSet).toSet
    assert(partition(viaSpark.toSeq) == partition(local))
  }

  test("tightness values are in (0, 1]") {
    val edges = Seq(
      (1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L), (2L, 4L), (3L, 4L),
      (2L, 5L), (5L, 6L), (1L, 5L), (1L, 6L)).toDF("src", "dst")
    LocalCommunities.detect(spark, edges).collect().foreach { a =>
      assert(a.tightness > 0 && a.tightness <= 1.0, a)
    }
  }

  test("a two-node graph gives mutual singleton assignments") {
    val edges = Seq((1L, 2L)).toDF("src", "dst")
    val assigns = LocalCommunities.detect(spark, edges).collect()
    assert(assigns.length == 2)
    assigns.foreach { a =>
      assert(assigns.count(b => b.ego == a.ego && b.comm == a.comm) == 1)
      assert(a.tightness == 1.0)
    }
  }
}
