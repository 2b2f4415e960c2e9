/**
 * @file
 * Software 3D rendering pipeline (paper §2, §5.5).
 *
 * Following Larrabee and the Vortex graphics stack, the whole pipeline is
 * software: the *geometry stage* (vertex shading, near-plane clipping,
 * perspective divide, viewport transform) runs on the host, triangles are
 * binned into screen tiles (tile-based rendering), and each tile is
 * rasterized with edge functions, perspective-correct attribute
 * interpolation, and the OpenGL-ES fragment-op sequence: scissor -> alpha
 * test -> stencil test -> depth test -> fog -> write. Texturing uses the
 * same functional sampler as the hardware texture unit, so host rendering
 * and `tex`-accelerated kernels produce identical texels.
 */

#pragma once

#include <functional>
#include <vector>

#include "common/stats.h"
#include "graphics/framebuffer.h"
#include "graphics/vmath.h"
#include "mem/ram.h"
#include "tex/sampler.h"

namespace vortex::graphics {

/** A post-vertex-shader vertex (clip-space position + attributes). */
struct Vertex
{
    Vec4 position; ///< clip space
    Vec4 color{1.0f, 1.0f, 1.0f, 1.0f};
    Vec2 uv;
};

/** GL comparison functions. */
enum class CompareFunc : uint8_t
{
    Never, Less, Equal, LEqual, Greater, NotEqual, GEqual, Always
};

/** GL stencil operations. */
enum class StencilOp : uint8_t
{
    Keep, Zero, Replace, Incr, Decr, Invert
};

struct DepthState
{
    bool testEnabled = true;
    bool writeEnabled = true;
    CompareFunc func = CompareFunc::Less;
};

struct AlphaState
{
    bool testEnabled = false;
    CompareFunc func = CompareFunc::Always;
    float ref = 0.0f;
};

struct StencilState
{
    bool testEnabled = false;
    CompareFunc func = CompareFunc::Always;
    uint8_t ref = 0;
    uint8_t mask = 0xFF;
    StencilOp onFail = StencilOp::Keep;
    StencilOp onZFail = StencilOp::Keep;
    StencilOp onZPass = StencilOp::Keep;
};

struct FogState
{
    enum class Mode : uint8_t { Linear, Exp, Exp2 };
    bool enabled = false;
    Mode mode = Mode::Linear;
    Vec3 color{0.5f, 0.5f, 0.5f};
    float start = 1.0f; ///< linear mode
    float end = 100.0f;
    float density = 0.05f; ///< exp modes
};

/** Inputs to a fragment shader. */
struct FragmentIn
{
    Vec2 uv;
    Vec4 color;
    float depth; ///< window-space z in [0,1]
    float viewW; ///< interpolated view-space depth (fog distance)
};

/** A fragment shader maps interpolated attributes to an RGBA color. */
using FragmentShader = std::function<Vec4(const FragmentIn&)>;

/** The rendering pipeline bound to one framebuffer. */
class Pipeline
{
  public:
    explicit Pipeline(Framebuffer& fb, uint32_t tile_size = 64);

    //
    // State.
    //
    DepthState& depthState() { return depth_; }
    AlphaState& alphaState() { return alpha_; }
    StencilState& stencilState() { return stencil_; }
    FogState& fogState() { return fog_; }

    /** Bind a texture for sampleTexture(); @p ram backs the texel data. */
    void
    bindTexture(const mem::Ram* ram, const tex::SamplerState& state)
    {
        texRam_ = ram;
        texState_ = state;
    }

    /** Sample the bound texture (usable from fragment shaders). */
    Vec4 sampleTexture(float u, float v, float lod = 0.0f) const;

    void setFragmentShader(FragmentShader shader)
    {
        shader_ = std::move(shader);
    }

    //
    // Geometry submission: vertices are in clip space (the application's
    // vertex shader — host code — has already run). The rasterizer
    // implements the paper's basic point, line, and triangle primitives
    // (§5.5).
    //
    void drawTriangles(const std::vector<Vertex>& vertices,
                       const std::vector<uint32_t>& indices);

    /** Line segments: each index pair is one segment (GL_LINES), drawn
     *  with a DDA at one fragment per major step. */
    void drawLines(const std::vector<Vertex>& vertices,
                   const std::vector<uint32_t>& indices);

    /** Point sprites of @p size x @p size pixels (GL_POINTS). */
    void drawPoints(const std::vector<Vertex>& vertices, uint32_t size = 1);

    /** Rasterization statistics (triangles, tiles, fragments, tests). */
    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

  private:
    /** A screen-space triangle ready for rasterization. */
    struct ScreenTri
    {
        // Window coordinates (x, y in pixels, z in [0,1]) and 1/w.
        float x[3], y[3], z[3], invW[3];
        // Attributes pre-divided by w for perspective-correct lerp.
        Vec4 colorOverW[3];
        Vec2 uvOverW[3];
        float minX, minY, maxX, maxY;
    };

    void clipAndEmit(const Vertex& a, const Vertex& b, const Vertex& c,
                     std::vector<ScreenTri>& out) const;
    bool toScreen(const Vertex& v, ScreenTri& tri, int slot) const;
    /** Shade one non-triangle fragment (points/lines) with the full
     *  fragment-op sequence. */
    void shadePrimFragment(int32_t x, int32_t y, const Vertex& v);
    void rasterizeTile(const ScreenTri& tri, uint32_t tx0, uint32_t ty0,
                       uint32_t tx1, uint32_t ty1);
    void shadeFragment(const ScreenTri& tri, uint32_t x, uint32_t y,
                       float w0, float w1, float w2);

    static bool compare(CompareFunc f, float a, float b);
    static uint8_t stencilApply(StencilOp op, uint8_t value, uint8_t ref);

    Framebuffer& fb_;
    uint32_t tileSize_;
    DepthState depth_;
    AlphaState alpha_;
    StencilState stencil_;
    FogState fog_;
    FragmentShader shader_;
    const mem::Ram* texRam_ = nullptr;
    tex::SamplerState texState_;
    StatGroup stats_;
};

} // namespace vortex::graphics
