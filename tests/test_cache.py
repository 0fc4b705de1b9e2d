import random

from homlattice.cache import CacheInfo, LRUCache


class ModelLRU:
    """The least recently used order kept as a plain list, oldest first:
    every hit and every put moves its key to the end."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.items = []
        self.hits = self.misses = 0

    def _find(self, key):
        return next((i for i, (k, _) in enumerate(self.items) if k == key),
                    None)

    def get(self, key):
        i = self._find(key)
        if i is None:
            self.misses += 1
            return None
        self.hits += 1
        self.items.append(self.items.pop(i))
        return self.items[-1][1]

    def put(self, key, value):
        i = self._find(key)
        if i is not None:
            del self.items[i]
        self.items.append((key, value))
        if len(self.items) > self.maxsize:
            del self.items[0]


def test_lru_order_and_counts_match_a_list_model():
    """Random gets, puts and clears on a small cache keep the order, the
    values and ``info`` of a list that moves every used key to the end,
    with equal keys of other identities and one value stored under two
    keys, as the expansion cache stores an expansion under its class and
    labelled keys."""
    rng = random.Random(5)
    shared = object()
    values = [object() for _ in range(4)] + [shared]
    for maxsize in (1, 3, 5):
        cache, model = LRUCache(maxsize), ModelLRU(maxsize)
        for _ in range(3000):
            # A fresh tuple each time: equal keys are rarely identical.
            key = ("k", rng.randrange(7))
            roll = rng.random()
            if roll < 0.5:
                assert cache.get(key) is model.get(key)
            elif roll < 0.98:
                value = rng.choice(values)
                cache.put(key, value)
                model.put(key, value)
            else:
                cache.clear()
                model = ModelLRU(maxsize)
            assert list(cache._entries.items()) == model.items
            assert cache.info() == CacheInfo(model.hits, model.misses,
                                             maxsize, len(model.items))
            assert len(cache) == len(model.items)


def test_every_hit_moves_its_entry_to_the_end():
    """A hit on the newest entry keeps the order; a hit on an older entry
    that shares the newest entry's value moves it to the end, as the
    expansion cache's class and labelled keys share one expansion."""
    cache = LRUCache(3)
    value = object()
    cache.put(("class", 1), value)
    cache.put(("labelled", 1), value)
    assert cache.get(("labelled", 1)) is value
    assert list(cache._entries) == [("class", 1), ("labelled", 1)]
    assert cache.get(("class", 1)) is value
    assert list(cache._entries) == [("labelled", 1), ("class", 1)]
    assert cache.info() == CacheInfo(2, 0, 3, 2)
