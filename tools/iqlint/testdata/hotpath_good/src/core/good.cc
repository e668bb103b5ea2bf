#include <cstddef>
#include <vector>

#define IQ_HOT_NOALLOC

IQ_HOT_NOALLOC
double Sum(const double* xs, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += xs[i];
  return acc;
}

// Borrowing a container is not a declaration of one; a reasoned
// suppression covers a local that cannot be avoided.
IQ_HOT_NOALLOC
double First(const std::vector<double>& xs, std::vector<double>* out) {
  const std::vector<double>& view = xs;
  std::vector<double>* sink = out;
  // iqlint: allow(hotpath-alloc): fixture for the suppression path.
  std::vector<double> copy;
  (void)sink;
  (void)copy;
  return view.empty() ? 0.0 : view[0];
}

// Unannotated functions may allocate freely.
int* Fresh() { return new int(7); }
