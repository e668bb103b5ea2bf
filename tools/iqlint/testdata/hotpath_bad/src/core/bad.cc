#include <cstddef>
#include <vector>

#define IQ_HOT_NOALLOC
#define IQ_HOT_NOALLOC_BEGIN
#define IQ_HOT_NOALLOC_END

IQ_HOT_NOALLOC
void Grow(std::vector<int>* out, int n) {
  for (int i = 0; i < n; ++i) {
    out->push_back(i);
  }
  int* leak = new int(n);
  (void)leak;
}

void Region(std::vector<int>* out) {
  IQ_HOT_NOALLOC_BEGIN;
  out->reserve(16);
  IQ_HOT_NOALLOC_END;
}

IQ_HOT_NOALLOC
double Local(const double* xs, size_t n) {
  std::vector<double> copy(xs, xs + n);
  return copy.empty() ? 0.0 : copy[0];
}
