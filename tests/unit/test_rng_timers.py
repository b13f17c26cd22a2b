"""Unit tests for random streams."""

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_label_returns_same_generator(self, streams):
        assert streams.get("a") is streams.get("a")

    def test_different_labels_are_independent_streams(self):
        streams = RandomStreams(7)
        a = streams.get("a").random(100)
        b = streams.get("b").random(100)
        assert list(a) != list(b)

    def test_reproducible_across_instances(self):
        one = RandomStreams(42).get("arrivals").random(10)
        two = RandomStreams(42).get("arrivals").random(10)
        assert list(one) == list(two)

    def test_different_seeds_differ(self):
        one = RandomStreams(1).get("x").random(10)
        two = RandomStreams(2).get("x").random(10)
        assert list(one) != list(two)

    def test_label_order_does_not_perturb_streams(self):
        fwd = RandomStreams(9)
        fwd.get("first")
        a1 = fwd.get("second").random(5)
        rev = RandomStreams(9)
        a2 = rev.get("second").random(5)
        assert list(a1) == list(a2)

    def test_spawn_is_deterministic(self):
        a = RandomStreams(5).spawn("child").get("x").random(5)
        b = RandomStreams(5).spawn("child").get("x").random(5)
        assert list(a) == list(b)

    def test_seed_property(self):
        assert RandomStreams(17).seed == 17

