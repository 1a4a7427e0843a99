// A vector TU (bitwise avx2 backend stand-in) whose CMakeLists forgets
// -ffp-contract=off. Must trip kernels-fp-contract.
void kernel(float* out, const float* a, const float* b, int n) {
  for (int i = 0; i < n; ++i) out[i] = a[i] * b[i] + out[i];
}
