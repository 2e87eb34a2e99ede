"""The fixed shape of :mod:`lintfix.missing_key`: the knob parameter
reaches the memo key.  Must produce zero findings."""


class CoverageMemo:
    def __init__(self):
        self._coverages = {}

    def coverages(self, kernel, batch=True, reference=False):
        key = (kernel, batch, reference)
        found = self._coverages.get(key)
        if found is not None:
            return found
        value = ("coverage", kernel, batch, reference)
        self._coverages[key] = value
        return value
