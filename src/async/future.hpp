#pragma once

// Futures over the virtual timeline (docs/MODEL.md §11).
//
// A Future is the handle a submitted task returns: which task produces
// the value and when it is ready on the virtual clock.  Completion is a
// pure function of the submission order and the cost model: nothing here
// reads wall clock or randomness, which is what keeps replays bitwise.

namespace toast::async {

struct Future {
  /// Producing task id in the submitting engine (-1: no task, already
  /// resolved — await() is a no-op).
  int task = -1;
  /// Completion time on the virtual timeline (absolute seconds).
  double ready = 0.0;

  bool valid() const { return task >= 0; }
};

}  // namespace toast::async
