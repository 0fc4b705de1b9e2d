"""Bounded least-recently-used caches that count their hits and misses."""

from collections import OrderedDict, namedtuple

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class LRUCache:
    """A mapping that keeps its ``maxsize`` most recently used entries.

    Keys are matched by hash and equality, and by identity first. Stored
    values must not be None, which ``get`` returns on a miss.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.hits = self.misses = 0
        self._entries = OrderedDict()

    def get(self, key):
        """The value under key, or None; counts a hit or a miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        """Store value under key, evicting the least recently used entry
        when the cache is full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self):
        """Drop every entry and reset the counts."""
        self._entries.clear()
        self.hits = self.misses = 0

    def info(self):
        return CacheInfo(self.hits, self.misses, self.maxsize,
                         len(self._entries))

    def __len__(self):
        return len(self._entries)
