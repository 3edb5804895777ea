// Image-quality exploration: the approximate-computing use case of the
// paper's §V.D. A Sobel filter runs on hardware whose integer FUs are
// overclocked 10 % beyond their error-free clock at a low-voltage
// corner. TEVoT predicts each FU's timing-error rate from the filter's
// own operand stream; errors are injected at those rates; the output
// PSNR tells a quality-aware runtime whether this operating point is
// acceptable (>= 30 dB) without ever running gate-level simulation.
//
// Pass an output directory to keep the degraded PNGs:
//
//	go run ./examples/imagequality out/
package main

import (
	"fmt"
	"image"
	"image/png"
	"log"
	"os"
	"path/filepath"

	"tevot"
	"tevot/internal/imaging"
	"tevot/internal/inject"
)

func main() {
	log.SetFlags(0)

	corner := tevot.Corner{V: 0.82, T: 25}
	const speedup = 0.10
	img := imaging.Synthetic(1, 48, 48)

	// Profile the Sobel filter's actual operand streams.
	rec := inject.NewRecording(2500)
	clean := inject.SobelApp.Run(img, rec)

	ters := inject.TERs{}
	for _, fuKind := range inject.SobelApp.FUs() {
		u, err := tevot.NewFunctionalUnit(fuKind)
		if err != nil {
			log.Fatal(err)
		}
		stream, err := rec.Stream(fuKind)
		if err != nil {
			log.Fatal(err)
		}
		// Rate the unit on random data, then model it.
		train := tevot.RandomWorkload(fuKind, 1200, 7)
		if _, err := tevot.CalibrateBaseClock(u, corner, train); err != nil {
			log.Fatal(err)
		}
		trTrain, err := tevot.CharacterizeWithSpeedups(u, corner, train, []float64{speedup})
		if err != nil {
			log.Fatal(err)
		}
		model, err := tevot.Train(fuKind, []*tevot.Trace{trTrain}, tevot.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		base, err := u.BaseClock(corner)
		if err != nil {
			log.Fatal(err)
		}
		tclk := base / (1 + speedup)
		ter, err := model.TER(corner, stream, tclk)
		if err != nil {
			log.Fatal(err)
		}
		ters[fuKind] = ter
		fmt.Printf("%v: base clock %.0f ps, +10%% clock %.0f ps, predicted TER %.3f%%\n",
			fuKind, base, tclk, ter*100)
	}

	psnr, degraded, err := inject.SobelApp.QualityRun(img, ters, 42)
	if err != nil {
		log.Fatal(err)
	}
	verdict := "ACCEPTABLE"
	if psnr < imaging.AcceptableThresholdDB {
		verdict = "UNACCEPTABLE"
	}
	fmt.Printf("\nSobel at %v, +10%% overclock: PSNR %.1f dB -> %s\n", corner, psnr, verdict)

	if len(os.Args) > 1 {
		dir := os.Args[1]
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for name, m := range map[string]*imaging.Image{
			"input.png":    img,
			"clean.png":    clean,
			"degraded.png": degraded,
		} {
			if err := writePNG(filepath.Join(dir, name), m); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("wrote input/clean/degraded PNGs to %s\n", dir)
	}
}

func writePNG(path string, m *imaging.Image) error {
	img := image.NewGray(image.Rect(0, 0, m.W, m.H))
	copy(img.Pix, m.Pix)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
