"""Store reference: :class:`ReferenceLsm` answers every read by merging all
runs and the memtable into one dict, ordered by :func:`model_order`."""

from repro.common.costmodel import DEFAULT_COST_MODEL


def model_order(keys):
    """The contract, type group by type group: numbers numerically, then
    ``str`` by code point, then ``bytes`` bytewise, then everything else by
    ``repr``."""
    numbers, strs, raw, rest = [], [], [], []
    for key in keys:
        if isinstance(key, str):
            strs.append(key)
        elif isinstance(key, (int, float)):
            numbers.append(key)
        elif isinstance(key, bytes):
            raw.append(key)
        else:
            rest.append(key)
    return sorted(numbers) + sorted(strs) + sorted(raw) + sorted(rest, key=repr)


def model_range(model, start, end):
    """``model``'s pairs with ``start <= key < end`` in the contract order;
    a bound's place is where the contract sorts it among the keys."""
    ordered = model_order(model)

    def below(bound):
        return model_order(set(model) | {bound}).index(bound)

    first = 0 if start is None else below(start)
    stop = len(ordered) if end is None else below(end)
    return [(key, model[key]) for key in ordered[first:stop]]


class ReferenceLsm:
    """``LsmStore``'s write and flush rules, with reads that merge every run
    and the memtable into one dict, then order and filter it."""

    def __init__(self, memtable_max_entries, max_runs):
        self.memtable_max_entries = memtable_max_entries
        self.max_runs = max_runs
        self.cost_model = DEFAULT_COST_MODEL
        self._memtable = {}  # key -> value, None a tombstone
        self._runs = []  # dicts, newest first
        self.last_op_cost = 0.0
        self.flushes = 0
        self.compactions = 0

    def get(self, key):
        cost = self.cost_model.store_memtable_get
        if key in self._memtable:
            self.last_op_cost = cost
            return self._memtable[key]
        for run in self._runs:
            cost += self.cost_model.store_run_get
            if key in run:
                self.last_op_cost = cost
                return run[key]
        self.last_op_cost = cost
        return None

    def put(self, key, value):
        self.put_many({key: value})

    def delete(self, key):
        self.put_many({key: None})

    def put_many(self, writes):
        self._memtable.update(writes)
        self.last_op_cost = self.cost_model.store_put
        if len(self._memtable) >= self.memtable_max_entries:
            self.flush_memtable()

    def __contains__(self, key):
        return self.get(key) is not None

    def flush_memtable(self):
        if not self._memtable:
            return
        self._runs.insert(0, self._memtable)
        self._memtable = {}
        self.flushes += 1
        if len(self._runs) > self.max_runs:
            self.compact()

    def _merged(self):
        merged = {}
        for run in reversed(self._runs):
            merged.update(run)
        return merged

    def compact(self):
        merged = {k: v for k, v in self._merged().items() if v is not None}
        self._runs = [merged] if merged else []
        self.compactions += 1

    def items(self):
        merged = self._merged()
        merged.update(self._memtable)
        live = {k: v for k, v in merged.items() if v is not None}
        yield from model_range(live, None, None)

    def range_items(self, start=None, end=None):
        merged = self._merged()
        merged.update(self._memtable)
        live = {k: v for k, v in merged.items() if v is not None}
        yield from model_range(live, start, end)

    def scan_cost(self):
        return (
            self.cost_model.store_memtable_get
            + self.cost_model.store_run_get * len(self._runs)
        )

    def __len__(self):
        return sum(1 for _ in self.items())
