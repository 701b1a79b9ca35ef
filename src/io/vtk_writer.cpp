#include "io/vtk_writer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "basis/dubiner.hpp"
#include "io/atomic_file.hpp"

namespace tsg {

namespace {

/// One legacy-VTK BINARY file assembled in memory: ASCII header lines,
/// each array a run of big-endian values closed by a newline.
class VtkBuffer {
 public:
  /// `arrayBytes`: the summed size of every array the file will hold, so
  /// that the buffer is allocated once (with room for the ASCII lines).
  VtkBuffer(const std::string& title, std::size_t arrayBytes) {
    bytes_.reserve(arrayBytes + 4096);
    line("# vtk DataFile Version 3.0");
    line(title);
    line("BINARY");
  }

  void line(const std::string& s) {
    bytes_ += s;
    bytes_ += '\n';
  }

  /// Append value(0), ..., value(count - 1) as big-endian T, then '\n'.
  template <class T, class F>
  void array(std::size_t count, F value) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + count * sizeof(T) + 1);
    char* p = bytes_.data() + at;
    for (std::size_t i = 0; i < count; ++i, p += sizeof(T)) {
      const T v = value(i);
      std::memcpy(p, &v, sizeof v);
      if constexpr (std::endian::native == std::endian::little) {
        std::reverse(p, p + sizeof v);
      }
    }
    *p = '\n';
  }

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

}  // namespace

void writeVtkMesh(const std::string& path, const Mesh& mesh,
                  const std::map<std::string, std::vector<real>>& cellData) {
  const std::size_t nv = mesh.vertices.size();
  const std::size_t n = mesh.elements.size();
  for (const auto& [name, values] : cellData) {
    if (values.size() != n) {
      throw std::invalid_argument("writeVtkMesh: field size mismatch: " +
                                  name);
    }
  }
  VtkBuffer out("tsunamigen mesh",
                3 * nv * sizeof(double) + 6 * n * sizeof(std::int32_t) +
                    cellData.size() * n * sizeof(double));
  out.line("DATASET UNSTRUCTURED_GRID");
  out.line("POINTS " + std::to_string(nv) + " double");
  out.array<double>(3 * nv,
                    [&](std::size_t i) { return mesh.vertices[i / 3][i % 3]; });
  out.line("CELLS " + std::to_string(n) + " " + std::to_string(5 * n));
  out.array<std::int32_t>(5 * n, [&](std::size_t i) {
    return i % 5 == 0 ? 4 : mesh.elements[i / 5].vertices[i % 5 - 1];
  });
  out.line("CELL_TYPES " + std::to_string(n));
  out.array<std::int32_t>(n, [](std::size_t) { return 10; });  // VTK_TETRA
  if (!cellData.empty()) {
    out.line("CELL_DATA " + std::to_string(n));
    for (const auto& [name, values] : cellData) {
      out.line("SCALARS " + name + " double 1");
      out.line("LOOKUP_TABLE default");
      out.array<double>(n, [&](std::size_t i) { return values[i]; });
    }
  }
  atomicWriteFile(path, out.bytes());  // throws IoError naming the path
}

std::map<std::string, std::vector<real>> wavefieldCellData(
    const Simulation& sim) {
  static const char* kNames[kNumQuantities] = {
      "sxx", "syy", "szz", "sxy", "syz", "sxz", "vx", "vy", "vz"};
  const int n = sim.mesh().numElements();
  std::map<std::string, std::vector<real>> fields;
  std::vector<real>* column[kNumQuantities];
  for (int q = 0; q < kNumQuantities; ++q) {
    column[q] = &fields[kNames[q]];
    column[q]->resize(n);
  }
  auto& pressure = fields["pressure"];
  pressure.resize(n);
  // Centroid basis values, tabulated once; accumulated l-ascending as in
  // Simulation::evaluate, so every cell value matches it bitwise.
  const int degree = sim.config().degree;
  const int nb = basisSize(degree);
  std::vector<real> phi(nb);
  dubinerTetAll(degree, {0.25, 0.25, 0.25}, phi.data());
  const real* dofs = sim.dofsData().data();
  for (int e = 0; e < n; ++e) {
    const real* dq = dofs + static_cast<std::size_t>(e) * nb * kNumQuantities;
    real v[kNumQuantities] = {};
    for (int l = 0; l < nb; ++l) {
      for (int q = 0; q < kNumQuantities; ++q) {
        v[q] += phi[l] * dq[l * kNumQuantities + q];
      }
    }
    for (int q = 0; q < kNumQuantities; ++q) {
      (*column[q])[e] = v[q];
    }
    pressure[e] = -(v[kSxx] + v[kSyy] + v[kSzz]) / 3.0;
  }
  return fields;
}

void writeVtkWavefield(const std::string& path, const Simulation& sim) {
  writeVtkMesh(path, sim.mesh(), wavefieldCellData(sim));
}

void writeVtkSurface(const std::string& path,
                     const std::vector<SurfaceSample>& samples) {
  const std::size_t n = samples.size();
  VtkBuffer out("tsunamigen sea surface",
                4 * n * sizeof(double) + 2 * n * sizeof(std::int32_t));
  out.line("DATASET POLYDATA");
  out.line("POINTS " + std::to_string(n) + " double");
  out.array<double>(3 * n, [&](std::size_t i) {
    const SurfaceSample& s = samples[i / 3];
    return i % 3 == 0 ? s.x : i % 3 == 1 ? s.y : s.eta;
  });
  out.line("VERTICES " + std::to_string(n) + " " + std::to_string(2 * n));
  out.array<std::int32_t>(2 * n, [](std::size_t i) {
    return i % 2 == 0 ? 1 : static_cast<std::int32_t>(i / 2);
  });
  out.line("POINT_DATA " + std::to_string(n));
  out.line("SCALARS eta double 1");
  out.line("LOOKUP_TABLE default");
  out.array<double>(n, [&](std::size_t i) { return samples[i].eta; });
  atomicWriteFile(path, out.bytes());  // throws IoError naming the path
}

}  // namespace tsg
