"""Batched provider calls for test providers defined one shape at a time."""

import numpy as np


class Pointwise:
    """connection_many and contacts_many for a provider that defines connection_at and contacts_at."""

    def connection_many(self, label, shapes):
        return np.stack([self.connection_at(r) for r in shapes])

    def contacts_many(self, shapes):
        return [self.contacts_at(r) for r in shapes]
