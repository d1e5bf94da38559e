import random

from plucker.reports import random_config


def test_random_config_has_room_for_many_labels():
    # 19 is the last n for which [-9, 9] holds n distinct values
    for n in (8, 19, 24):
        xs = [x for x, _ in random_config(n, random.Random(n)).points]
        assert len(xs) == n == len(set(xs))
        assert all(abs(x) <= max(9, n // 2) for x in xs)
