"""The paper's metrics as streaming folds over chunk streams.

:class:`StreamingMoments` and :class:`StreamingError` are
:mod:`repro.metrics.streaming`'s, re-exported here: they are the one
implementation of characterization, e_max, RMSE/NRMSE and Pearson, and
the batch metrics are their one-chunk case, bit for bit.  Both folds
also ``merge`` partials computed elsewhere (worker processes).
"""

from repro.metrics.streaming import StreamingError, StreamingMoments

__all__ = ["StreamingError", "StreamingMoments"]
