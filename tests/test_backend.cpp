// Tests for the backend manifest and the per-kernel OpRegistry: tag
// slots, enum mapping, base-chain inheritance (jax-cpu falls back to the
// jax registration) and structured dispatch failure.

#include "backend/manifest.hpp"
#include "backend/registry.hpp"

#include <gtest/gtest.h>

#include <string>

namespace backend = toast::backend;
namespace core = toast::core;
using core::Backend;

namespace {

struct ToyArgs {
  int payload = 0;
};

core::ExecContext make_ctx(Backend b = Backend::kCpu) {
  core::ExecConfig cfg;
  cfg.backend = b;
  return core::ExecContext(cfg);
}

}  // namespace

TEST(BackendManifest, TagSlotsAreStableAndComplete) {
  EXPECT_EQ(backend::backend_count, 4u);
  EXPECT_EQ(backend::backend_index<backend::cpu_tag>(), 0u);
  EXPECT_EQ(backend::backend_index<backend::omptarget_tag>(), 1u);
  EXPECT_EQ(backend::backend_index<backend::jax_tag>(), 2u);
  EXPECT_EQ(backend::backend_index<backend::jax_cpu_tag>(), 3u);
}

TEST(BackendManifest, EnumMapsToTagSlots) {
  EXPECT_EQ(backend::index_of(Backend::kCpu),
            backend::backend_index<backend::cpu_tag>());
  EXPECT_EQ(backend::index_of(Backend::kOmpTarget),
            backend::backend_index<backend::omptarget_tag>());
  EXPECT_EQ(backend::index_of(Backend::kJax),
            backend::backend_index<backend::jax_tag>());
  EXPECT_EQ(backend::index_of(Backend::kJaxCpu),
            backend::backend_index<backend::jax_cpu_tag>());
}

TEST(BackendManifest, NamesFollowTheTuple) {
  EXPECT_STREQ(backend::name_of(0), "cpu");
  EXPECT_STREQ(backend::name_of(1), "omp-target");
  EXPECT_STREQ(backend::name_of(2), "jax");
  EXPECT_STREQ(backend::name_of(3), "jax-cpu");
  EXPECT_STREQ(backend::name_of(backend::npos), "unknown");
}

TEST(BackendManifest, BaseChainLinksJaxVariantsToJax) {
  const std::size_t jax = backend::backend_index<backend::jax_tag>();
  // Root tags are their own base (the registry stops there).
  EXPECT_EQ(backend::base_index(0), 0u);
  EXPECT_EQ(backend::base_index(1), 1u);
  EXPECT_EQ(backend::base_index(jax), jax);
  EXPECT_EQ(
      backend::base_index(backend::backend_index<backend::jax_cpu_tag>()),
      jax);
}

TEST(BackendManifest, WithBackendVisitsTheMatchingTag) {
  std::string seen;
  const bool called =
      backend::with_backend(Backend::kJaxCpu, [&](auto tag) {
        seen = decltype(tag)::name;
      });
  EXPECT_TRUE(called);
  EXPECT_EQ(seen, "jax-cpu");
}

TEST(BackendRegistry, DispatchSelectsTheRegisteredTag) {
  auto ctx = make_ctx();
  backend::OpRegistry<ToyArgs> reg("toy");
  std::string hit;
  reg.add<backend::cpu_tag>(
      [&](const ToyArgs& a, core::ExecContext&) {
        hit = "cpu:" + std::to_string(a.payload);
      });
  reg.add<backend::omptarget_tag>(
      [&](const ToyArgs& a, core::ExecContext&) {
        hit = "omp:" + std::to_string(a.payload);
      });
  reg.invoke(Backend::kCpu, ToyArgs{1}, ctx);
  EXPECT_EQ(hit, "cpu:1");
  reg.invoke(Backend::kOmpTarget, ToyArgs{2}, ctx);
  EXPECT_EQ(hit, "omp:2");
}

TEST(BackendRegistry, JaxVariantsInheritTheJaxRegistration) {
  auto ctx = make_ctx();
  backend::OpRegistry<ToyArgs> reg("toy");
  int jax_calls = 0;
  reg.add<backend::jax_tag>(
      [&](const ToyArgs&, core::ExecContext&) { ++jax_calls; });
  EXPECT_TRUE(reg.has(Backend::kJax));
  EXPECT_TRUE(reg.has(Backend::kJaxCpu));
  EXPECT_FALSE(reg.has(Backend::kCpu));
  reg.invoke(Backend::kJax, {}, ctx);
  reg.invoke(Backend::kJaxCpu, {}, ctx);
  EXPECT_EQ(jax_calls, 2);
}

TEST(BackendRegistry, SpecializationShadowsTheBase) {
  auto ctx = make_ctx();
  backend::OpRegistry<ToyArgs> reg("toy");
  std::string hit;
  reg.add<backend::jax_tag>(
      [&](const ToyArgs&, core::ExecContext&) { hit = "jax"; });
  reg.add<backend::jax_cpu_tag>(
      [&](const ToyArgs&, core::ExecContext&) { hit = "jax-cpu"; });
  reg.invoke(Backend::kJaxCpu, {}, ctx);
  EXPECT_EQ(hit, "jax-cpu");
  // The base keeps its own registration.
  reg.invoke(Backend::kJax, {}, ctx);
  EXPECT_EQ(hit, "jax");
}

TEST(BackendRegistry, UnregisteredBackendThrowsStructuredError) {
  auto ctx = make_ctx();
  backend::OpRegistry<ToyArgs> reg("scan_map");
  reg.add<backend::jax_tag>([](const ToyArgs&, core::ExecContext&) {});
  try {
    reg.invoke(Backend::kCpu, {}, ctx);
    FAIL() << "expected UnknownKernelError";
  } catch (const backend::UnknownKernelError& e) {
    EXPECT_EQ(e.kernel(), "scan_map");
    EXPECT_EQ(e.backend(), Backend::kCpu);
    EXPECT_NE(std::string(e.what()).find("scan_map"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cpu"), std::string::npos);
  }
}

TEST(BackendRegistry, EmptyRegistryRejectsEverything) {
  auto ctx = make_ctx();
  const backend::OpRegistry<ToyArgs> reg("empty");
  for (const Backend b :
       {Backend::kCpu, Backend::kOmpTarget, Backend::kJax, Backend::kJaxCpu}) {
    EXPECT_FALSE(reg.has(b));
    EXPECT_THROW(reg.invoke(b, {}, ctx), backend::UnknownKernelError);
  }
}
