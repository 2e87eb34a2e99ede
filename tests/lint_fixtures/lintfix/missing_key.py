"""The reverted-PR-6 bug, distilled: a coverage memo whose key drops
the evaluation knob, so a production entry would answer the oracle.
Must produce exactly one ``memo-keys:missing-knob`` (``reference``)."""


class CoverageMemo:
    def __init__(self):
        self._coverages = {}

    def coverages(self, kernel, batch=True, reference=False):
        key = (kernel, batch)
        found = self._coverages.get(key)
        if found is not None:
            return found
        value = ("coverage", kernel, batch, reference)
        self._coverages[key] = value
        return value
